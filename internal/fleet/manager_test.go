package fleet

import (
	"fmt"
	"strings"
	"testing"

	"menos/internal/obs"
)

func newTestManager(t *testing.T, placer Placer, servers int) *Manager {
	t.Helper()
	m := NewManager(placer, nil)
	for i := 0; i < servers; i++ {
		if err := m.AddServer(i, 32*gib, []string{"m"}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestManagerPlaceTracksAssignment(t *testing.T) {
	m := newTestManager(t, NewRoundRobin(), 2)
	ids := []string{"a", "b", "c"}
	for i, id := range ids {
		srv, err := m.Place(ClientInfo{ID: id, TransientPeakBytes: gib})
		if err != nil {
			t.Fatal(err)
		}
		if srv != i%2 {
			t.Fatalf("client %q on server %d, want %d", id, srv, i%2)
		}
		if got, ok := m.ServerOf(id); !ok || got != srv {
			t.Fatalf("ServerOf(%q) = %d,%v", id, got, ok)
		}
	}
	if n := m.ClientCount(0); n != 2 {
		t.Fatalf("server 0 hosts %d clients, want 2", n)
	}
	if _, err := m.Place(ClientInfo{ID: "a"}); err == nil {
		t.Fatal("double placement of one client must error")
	}
}

func TestManagerDrainExcludesFromPlacement(t *testing.T) {
	m := newTestManager(t, NewRoundRobin(), 2)
	if err := m.Drain(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		srv, err := m.Place(ClientInfo{ID: strings.Repeat("x", i+1)})
		if err != nil {
			t.Fatal(err)
		}
		if srv != 1 {
			t.Fatalf("placement landed on draining server %d", srv)
		}
	}
	if err := m.Drain(1); err == nil {
		t.Fatal("draining the last active server must error")
	}
}

func TestManagerRebalanceEvacuatesDrainingServer(t *testing.T) {
	m := newTestManager(t, NewLeastLoaded(), 2)
	c := ClientInfo{ID: "a", TransientPeakBytes: gib}
	if _, err := m.Place(c); err != nil {
		t.Fatal(err)
	}
	// Balanced fleet: no move.
	if _, moved, err := m.Rebalance(c, nil); err != nil || moved {
		t.Fatalf("unforced rebalance moved=%v err=%v, want no move", moved, err)
	}
	if err := m.Drain(0); err != nil {
		t.Fatal(err)
	}
	target, moved, err := m.Rebalance(c, nil)
	if err != nil || !moved || target != 1 {
		t.Fatalf("drain evacuation: target=%d moved=%v err=%v, want 1,true,nil", target, moved, err)
	}
	if n := m.ClientCount(0); n != 0 {
		t.Fatalf("drained server still hosts %d clients", n)
	}
	if err := m.Remove(0); err != nil {
		t.Fatal(err)
	}
	if m.ActiveServers() != 1 {
		t.Fatalf("ActiveServers = %d, want 1", m.ActiveServers())
	}
}

func TestManagerRebalanceRequiresStrictImprovement(t *testing.T) {
	m := newTestManager(t, NewLeastLoaded(), 2)
	a := ClientInfo{ID: "a"}
	b := ClientInfo{ID: "b"}
	if _, err := m.Place(a); err != nil { // server 0
		t.Fatal(err)
	}
	if _, err := m.Place(b); err != nil { // server 1
		t.Fatal(err)
	}
	// 1 vs 1: moving would just swap the imbalance; must hold.
	if _, moved, _ := m.Rebalance(a, nil); moved {
		t.Fatal("rebalance oscillated on a balanced fleet")
	}
}

func TestManagerRemoveRefusesOccupiedServer(t *testing.T) {
	m := newTestManager(t, NewRoundRobin(), 2)
	if _, err := m.Place(ClientInfo{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(0); err == nil {
		t.Fatal("removing an occupied server must error")
	}
}

func TestManagerMetricsAndImbalance(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(NewRoundRobin(), reg)
	for i := 0; i < 2; i++ {
		if err := m.AddServer(i, 32*gib, []string{"m"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := m.Place(ClientInfo{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	m.RecordScaleEvent()
	if v := reg.Counter(obs.MetricFleetPlacements).Value(); v != 3 {
		t.Errorf("%s = %d, want 3", obs.MetricFleetPlacements, v)
	}
	if v := reg.Counter(obs.MetricFleetScaleEvents).Value(); v != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricFleetScaleEvents, v)
	}
	if v := reg.Gauge(obs.MetricFleetServers).Value(); v != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricFleetServers, v)
	}
	// 2 and 1 clients: max/mean = 2/1.5 = 1.333… → 1333 thousandths.
	if v := reg.Gauge(obs.MetricFleetImbalance).Value(); v != 1333 {
		t.Errorf("%s = %d, want 1333", obs.MetricFleetImbalance, v)
	}
	st := m.Stats()
	if st.Placements != 3 || st.ScaleEvents != 1 || st.Servers != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestManagerDrainCandidatePicksEmptiest(t *testing.T) {
	m := newTestManager(t, NewRoundRobin(), 3)
	for _, id := range []string{"a", "b", "c", "d"} { // 2,1,1 via round-robin
		if _, err := m.Place(ClientInfo{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	id, ok := m.DrainCandidate()
	if !ok || id != 1 {
		t.Fatalf("DrainCandidate = %d,%v, want 1,true (fewest clients, lowest ID)", id, ok)
	}
	m.Depart("a")
	m.Depart("d")
	id, ok = m.DrainCandidate()
	if !ok || id != 0 {
		t.Fatalf("DrainCandidate after departures = %d,%v, want 0,true", id, ok)
	}
}

// Place and Rebalance hand the placer the Manager's own rows, or a
// buffer it owns while a server drains, so a decision over a 64-server
// fleet allocates no ServerLoad slice; Loads still returns a snapshot
// of its own.
func TestManagerPlaceReusesLoadBuffer(t *testing.T) {
	m := newTestManager(t, NewLeastLoaded(), 64)
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("client-%d", i)
	}
	place := func() {
		for _, id := range ids {
			if _, err := m.Place(ClientInfo{ID: id, TransientPeakBytes: gib}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Rebalance(ClientInfo{ID: id, TransientPeakBytes: gib}, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			m.Depart(id)
		}
	}
	for _, drain := range []bool{false, true} {
		if drain {
			if err := m.Drain(5); err != nil {
				t.Fatal(err)
			}
		}
		place()
		// Only the assignment map's growth may allocate, never a load per
		// server.
		if n := testing.AllocsPerRun(5, place); n > float64(len(ids)) {
			t.Fatalf("draining %v: %.0f allocations placing %d clients on 64 servers", drain, n, len(ids))
		}
	}
	a, b := m.Loads(), m.Loads()
	a[0].Clients = -1
	if b[0].Clients == -1 || &a[0] == &m.rows[0] {
		t.Fatal("Loads shares its slice")
	}
}

// Observe is the only way live signals reach a decision: each push
// lands in that server's row, Place reads it with no other call, Loads
// reports it, and a push for an unregistered server changes nothing.
func TestManagerObserveFeedsDecisions(t *testing.T) {
	m := newTestManager(t, NewLeastLoaded(), 3)
	m.Observe(0, Signals{QueueDepth: 5})
	m.Observe(1, Signals{QueueDepth: 2, UsedBytes: 3 * gib, Admission: AdmissionThrottled})
	if id, err := m.Place(ClientInfo{ID: "a"}); err != nil || id != 2 {
		t.Fatalf("Place = %d, %v; want 2, the only server with no queue", id, err)
	}
	m.Observe(2, Signals{QueueDepth: 9})
	if id, err := m.Place(ClientInfo{ID: "b"}); err != nil || id != 1 {
		t.Fatalf("Place = %d, %v; want 1 after server 2's queue grew", id, err)
	}
	m.Observe(7, Signals{QueueDepth: 1})
	loads := m.Loads()
	if len(loads) != 3 {
		t.Fatalf("%d rows after observing an unregistered server, want 3", len(loads))
	}
	want := ServerLoad{ID: 1, Clients: 1, QueueDepth: 2, UsedBytes: 3 * gib, Admission: AdmissionThrottled,
		CapacityBytes: 32 * gib, Models: []string{"m"}}
	if got := loads[1]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Loads()[1] = %+v, want %+v", got, want)
	}
}
