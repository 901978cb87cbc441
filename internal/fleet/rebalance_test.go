package fleet

import (
	"fmt"
	"sync"
	"testing"
)

// TestManagerRebalanceFitVeto: the placer wants to move the client,
// but the fit callback (physical admission at the target) says no —
// the assignment must not change and nothing may leak in the
// committed-bytes ledger.
func TestManagerRebalanceFitVeto(t *testing.T) {
	m := newTestManager(t, NewLeastLoaded(), 1)
	// Crowd server 0 before server 1 exists, so moving one client is a
	// strict improvement the placer will propose.
	for i := 0; i < 3; i++ {
		if _, err := m.Place(ClientInfo{ID: fmt.Sprintf("c%d", i), TransientPeakBytes: gib}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddServer(1, 32*gib, []string{"m"}); err != nil {
		t.Fatal(err)
	}
	victim := ClientInfo{ID: "c0", TransientPeakBytes: gib}
	before0, before1 := m.ClientCount(0), m.ClientCount(1)

	vetoed := 0
	target, moved, err := m.Rebalance(victim, func(serverID int) bool {
		vetoed++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if moved {
		t.Fatalf("moved to %d despite fit veto", target)
	}
	if target != 0 {
		t.Fatalf("vetoed rebalance reported target %d, want current server 0", target)
	}
	if vetoed == 0 {
		t.Fatal("fit callback was never consulted")
	}
	if got, _ := m.ServerOf(victim.ID); got != 0 {
		t.Fatalf("client moved to %d after veto", got)
	}
	if m.ClientCount(0) != before0 || m.ClientCount(1) != before1 {
		t.Fatalf("counts changed under a vetoed move: %d/%d -> %d/%d",
			before0, before1, m.ClientCount(0), m.ClientCount(1))
	}
	if st := m.Stats(); st.Migrations != 0 {
		t.Fatalf("migrations = %d after veto, want 0", st.Migrations)
	}
}

// TestManagerRebalanceTieIsNotImprovement: a move that would leave
// the target with as many clients as the source has now (a tie, or a
// pure swap) must be refused — this is the oscillation damper.
func TestManagerRebalanceTieIsNotImprovement(t *testing.T) {
	m := newTestManager(t, NewLeastLoaded(), 1)
	// 2 vs 1: moving a client from 0 would produce 1 vs 2 — no better.
	for i := 0; i < 2; i++ {
		if _, err := m.Place(ClientInfo{ID: fmt.Sprintf("c%d", i), TransientPeakBytes: gib}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddServer(1, 32*gib, []string{"m"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Place(ClientInfo{ID: "c2", TransientPeakBytes: gib}); err != nil {
		t.Fatal(err)
	}
	fitCalled := false
	_, moved, err := m.Rebalance(ClientInfo{ID: "c0", TransientPeakBytes: gib},
		func(int) bool { fitCalled = true; return true })
	if err != nil {
		t.Fatal(err)
	}
	if moved {
		t.Fatal("2-vs-1 fleet rebalanced: tie move must be refused")
	}
	if fitCalled {
		t.Fatal("fit callback consulted for a move already refused by the improvement rule")
	}
}

// TestManagerRebalanceUnknownClient: rebalancing a client that was
// never placed is an error, not a silent placement.
func TestManagerRebalanceUnknownClient(t *testing.T) {
	m := newTestManager(t, NewLeastLoaded(), 2)
	if _, _, err := m.Rebalance(ClientInfo{ID: "ghost"}, nil); err == nil {
		t.Fatal("rebalance of an unplaced client must error")
	}
}

// TestManagerDrainRacesPlace: Drain concurrent with a stream of Place
// and Rebalance calls must stay internally consistent (run under
// -race): every placement lands somewhere, no client is lost, and
// once Drain returns, later placements avoid the drained server.
func TestManagerDrainRacesPlace(t *testing.T) {
	m := newTestManager(t, NewLeastLoaded(), 3)
	const clients = 60
	var wg sync.WaitGroup
	drained := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Drain(0); err != nil {
			t.Errorf("drain: %v", err)
		}
		close(drained)
	}()
	placed := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := ClientInfo{ID: fmt.Sprintf("c%d", i), TransientPeakBytes: gib}
			srv, err := m.Place(c)
			if err != nil {
				t.Errorf("place %d: %v", i, err)
				return
			}
			placed[i] = srv
			// Churn the other paths the drain races against.
			if i%3 == 0 {
				_, _, _ = m.Rebalance(c, func(int) bool { return true })
			}
			if i%7 == 0 {
				_ = m.Loads()
			}
		}(i)
	}
	wg.Wait()

	total := 0
	for id := 0; id < 3; id++ {
		total += m.ClientCount(id)
	}
	if total != clients {
		t.Fatalf("resident clients = %d, want %d (placements lost in the race)", total, clients)
	}
	for i := 0; i < clients; i++ {
		if _, ok := m.ServerOf(fmt.Sprintf("c%d", i)); !ok {
			t.Fatalf("client c%d has no assignment", i)
		}
	}

	// After the drain settled, new placements must avoid server 0.
	<-drained
	for i := 0; i < 6; i++ {
		srv, err := m.Place(ClientInfo{ID: fmt.Sprintf("late%d", i), TransientPeakBytes: gib})
		if err != nil {
			t.Fatal(err)
		}
		if srv == 0 {
			t.Fatal("placement landed on the drained server")
		}
	}
}
