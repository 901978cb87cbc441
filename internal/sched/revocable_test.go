package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"menos/internal/obs"
)

// parkedGrant enrolls id, submits a forward grant of fwd bytes for it,
// grows it to bwd and parks it; revoked counts the hook's firings.
func parkedGrant(t *testing.T, s *Scheduler, id string, fwd, bwd int64, revoked *atomic.Int64) Handle {
	t.Helper()
	h := mustEnroll(t, s, id)
	if err := h.Submit(KindForward, fwd, func() {}); err != nil {
		t.Fatal(err)
	}
	if !h.Grow(bwd) {
		t.Fatalf("%s: grow to %d refused with %d free", id, bwd, s.Available())
	}
	h.Park(func() { revoked.Add(1) })
	return h
}

// TestGrowNeverQueuesNorRevokes: grow takes strictly free bytes only —
// parked ones do not count — and is refused while any request waits.
func TestGrowNeverQueuesNorRevokes(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var revoked atomic.Int64
	parkedGrant(t, s, "parked", 10, 50, &revoked) // 50 parked, 50 free

	a := mustEnroll(t, s, "a")
	if err := a.Submit(KindForward, 10, func() {}); err != nil {
		t.Fatal(err)
	}
	if a.Grow(60) { // needs 50 more, 40 strictly free
		t.Fatal("grow took parked bytes")
	}
	if allocated(s, "a") != 10 || revoked.Load() != 0 || s.Parked() != 50 {
		t.Fatalf("refused grow moved state: a=%d revoked=%d parked=%d", allocated(s, "a"), revoked.Load(), s.Parked())
	}
	if !a.Grow(50) { // exactly the 40 free bytes
		t.Fatal("grow into strictly free bytes refused")
	}
	if allocated(s, "a") != 50 || s.Available() != 50 {
		t.Fatalf("after grow: a=%d available=%d, want 50 and 50 (the parked bytes)", allocated(s, "a"), s.Available())
	}
	if a.Complete() != 50 {
		t.Fatal("complete did not return the grown grant")
	}

	// A waiting request vetoes every grow, however much is free.
	s = New(100, PolicyFCFS)
	mustSubmit(t, s, "holder", KindBackward, 80, func() {})
	b, waiter := mustEnroll(t, s, "b"), mustEnroll(t, s, "waiter")
	if err := b.Submit(KindForward, 5, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := waiter.Submit(KindBackward, 90, func() {}); err != nil {
		t.Fatal(err)
	}
	if s.QueueDepth() != 1 || b.Grow(10) {
		t.Fatalf("grow granted with %d request(s) waiting", s.QueueDepth())
	}
	// Not a live plain grant: nothing held, queued, reserved, parked.
	nobody := mustEnroll(t, s, "nobody")
	if nobody.Grow(1) || waiter.Grow(95) {
		t.Fatal("grow of a request that holds no grant")
	}
	reserved := mustEnroll(t, s, "reserved")
	if err := reserved.Reserve(5); err != nil || reserved.Grow(10) {
		t.Fatalf("a reservation grew (reserve: %v)", err)
	}
	s = New(100, PolicyFCFS)
	p := parkedGrant(t, s, "parked", 10, 20, &revoked)
	if p.Grow(30) {
		t.Fatal("a parked grant grew")
	}
}

// TestRevocationIsSynchronousOldestFirstAndMinimal: a Submit or Reserve
// that fits only by revoking is granted inside the call, takes the
// oldest parked grants first and no more of them than it needs; Forget
// gives a reservation back as one completion.
func TestRevocationIsSynchronousOldestFirstAndMinimal(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var r1, r2, r3 atomic.Int64
	p1 := parkedGrant(t, s, "p1", 5, 30, &r1)
	parkedGrant(t, s, "p2", 5, 30, &r2)
	p3 := parkedGrant(t, s, "p3", 5, 30, &r3) // 90 parked, 10 free
	if s.Available() != 100 || s.Parked() != 90 {
		t.Fatalf("available %d parked %d, want 100 and 90", s.Available(), s.Parked())
	}

	// Fits free memory: nobody is revoked.
	mustSubmit(t, s, "small", KindForward, 10, func() {})
	if r1.Load()+r2.Load()+r3.Load() != 0 {
		t.Fatal("a request that fit free memory revoked a parked grant")
	}
	s.Complete("small")

	// Needs 35: 10 free + p1's 30. Granted before Submit returns.
	granted := false
	mustSubmit(t, s, "x", KindBackward, 35, func() { granted = true })
	if !granted || s.QueueDepth() != 0 {
		t.Fatal("a request that fits by revoking had to wait")
	}
	if r1.Load() != 1 || r2.Load() != 0 || r3.Load() != 0 {
		t.Fatalf("revoked p1=%d p2=%d p3=%d, want the oldest only", r1.Load(), r2.Load(), r3.Load())
	}
	if p1.Claim() {
		t.Fatal("claim after revoke succeeded")
	}
	if allocated(s, "p1") != 0 {
		t.Fatal("a revoked grant still holds bytes")
	}

	// Reserve takes the same path: 5 free, needs p2 as well.
	y := mustEnroll(t, s, "y")
	if err := y.Reserve(30); err != nil {
		t.Fatalf("reserve that fits by revoking: %v", err)
	}
	if r2.Load() != 1 || r3.Load() != 0 {
		t.Fatalf("reserve revoked p2=%d p3=%d, want p2 only", r2.Load(), r3.Load())
	}
	// p3 survived both and is claimed intact; its hook can never fire now.
	if !p3.Claim() || s.Parked() != 0 {
		t.Fatal("surviving parked grant not claimable")
	}
	if err := mustEnroll(t, s, "z").Reserve(10); err == nil {
		t.Fatal("reserve took a claimed grant's bytes")
	}
	p3.Complete()
	s.Complete("x")
	y.Forget()
	if s.Available() != 100 || s.Schedulable() != 100 || r3.Load() != 0 {
		t.Fatalf("available %d schedulable %d p3 revoked %d", s.Available(), s.Schedulable(), r3.Load())
	}
	// Every queue grant ends in a completion or a revocation; the one
	// reservation is completed without ever counting as granted.
	if st := s.Stats(); st.Grown != 3 || st.Claimed != 1 || st.Revoked != 2 || st.Granted+1 != st.Completed+st.Revoked {
		t.Fatalf("stats %+v: want 3 grown, 1 claimed, 2 revoked, granted + 1 reservation == completed + revoked", st)
	}
}

// TestParkSchedulesWaiters: parking is a release — a request that
// queued while the grant was live is granted, by revocation, the moment
// the grant parks.
func TestParkSchedulesWaiters(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	a := mustEnroll(t, s, "a")
	if err := a.Submit(KindForward, 10, func() {}); err != nil {
		t.Fatal(err)
	}
	if !a.Grow(70) {
		t.Fatal("grow refused")
	}
	granted := false
	mustSubmit(t, s, "b", KindBackward, 60, func() { granted = true })
	if granted {
		t.Fatal("b granted beside a live 70-byte grant")
	}
	var revoked atomic.Int64
	a.Park(func() { revoked.Add(1) })
	if !granted || revoked.Load() != 1 || s.Parked() != 0 {
		t.Fatalf("after park: b granted=%v, a revoked %d, parked %d", granted, revoked.Load(), s.Parked())
	}
}

// TestParkedGrantConservation: however a parked grant ends — Complete or
// Forget by its owner, revocation, the scheduler closing — the bytes
// come back once, the ledger releases what it acquired, and the hook
// fires only on the scheduler's initiative.
func TestParkedGrantConservation(t *testing.T) {
	reg := obs.NewRegistry()
	clock := &fakeClock{}
	s := New(100, PolicyFCFSBackfill)
	ledger := obs.NewLedger(obs.LedgerConfig{Clock: clock, Metrics: reg})
	mustWire(t, s, Wiring{Metrics: reg, Clock: clock, Ledger: ledger})

	var byOwner, byNeed, byForget, byClose atomic.Int64
	owner := parkedGrant(t, s, "owner", 10, 30, &byOwner)
	parkedGrant(t, s, "need", 10, 30, &byNeed)
	if v := reg.Gauge(obs.MetricSchedParkedBytes).Value(); v != 60 {
		t.Fatalf("parked gauge %d, want 60", v)
	}
	// The ledger releases per grant what it acquired: M_f at the grant
	// plus the difference at the grow. (Release clamps at zero, so the
	// holding is checked while held, not only after.)
	if u, _ := ledger.Usage("need"); u.TransientBytes != 30 {
		t.Fatalf("a grown grant is billed %d bytes, want 30", u.TransientBytes)
	}
	if got := owner.Complete(); got != 30 || byOwner.Load() != 0 {
		t.Fatalf("owner's complete reclaimed %d, hook fired %d", got, byOwner.Load())
	}
	mustSubmit(t, s, "big", KindBackward, 100, func() {})
	if byNeed.Load() != 1 {
		t.Fatal("revocation hook did not fire")
	}
	s.Complete("big")
	parkedGrant(t, s, "gone", 10, 30, &byForget).Forget()
	if byForget.Load() != 0 || s.Parked() != 0 || s.Available() != 100 {
		t.Fatalf("Forget of a parked grant: hook %d parked %d available %d", byForget.Load(), s.Parked(), s.Available())
	}
	late := parkedGrant(t, s, "late", 10, 30, &byClose)
	s.Close()
	if byClose.Load() != 1 || s.Parked() != 0 || s.Available() != 100 || late.Claim() {
		t.Fatalf("close left a parked grant: hook %d parked %d available %d", byClose.Load(), s.Parked(), s.Available())
	}
	// Parking on a closed scheduler revokes on the spot.
	var after atomic.Int64
	mustEnroll(t, s, "nobody").Park(func() { after.Add(1) })
	if after.Load() != 1 {
		t.Fatal("park of a grant that does not exist kept the owner's reference")
	}
	for _, u := range ledger.Snapshot() {
		if u.TransientBytes != 0 || u.PersistentBytes != 0 {
			t.Errorf("%s: ledger still holds %d/%d bytes", u.ID, u.TransientBytes, u.PersistentBytes)
		}
		if want := map[string]int64{"need": 1, "late": 1}[u.ID]; u.Revocations != want {
			t.Errorf("%s: %d revocations billed, want %d", u.ID, u.Revocations, want)
		}
	}
	if v := reg.Counter(obs.MetricSchedRevocations).Value(); v != 2 {
		t.Errorf("revocations counter %d, want 2", v)
	}
	if v := reg.Gauge(obs.MetricSchedParkedBytes).Value(); v != 0 {
		t.Errorf("parked gauge %d, want 0", v)
	}
}

// TestClaimVersusRevokeHammer: parkers run forward → grow → park →
// claim-or-resubmit → complete cycles while submitters keep needing more
// than free memory holds. A claim that returns true must never see its
// hook fire; a claim that returns false must have seen it fire exactly
// once; no request may wait while parked bytes would let it fit; the
// budget and every tenant's ledger balance at the end. Run under -race.
func TestClaimVersusRevokeHammer(t *testing.T) {
	// Six live backward grants fit the budget, so parkers alone never
	// contend and most grows succeed; each submitter needs more than free
	// memory holds whenever a few grants are parked or live.
	const parkers, submitters, rounds = 6, 3, 400 // rounds per parker
	const total, fwd, bwd = 200, 5, 30
	// Which outcomes a run sees is up to the Go scheduler (about one run
	// in three hundred sees no revocation at all), so the hammer repeats
	// until both have been exercised.
	var hits, misses int64
	for attempt := 0; attempt < 20 && (hits == 0 || misses == 0); attempt++ {
		h, m := claimVersusRevokeRound(t, parkers, submitters, rounds, total, fwd, bwd)
		hits, misses = hits+h, misses+m
	}
	t.Logf("%d hits, %d misses", hits, misses)
	if hits == 0 || misses == 0 {
		t.Errorf("%d hits, %d misses: the hammer exercised only one outcome", hits, misses)
	}
}

// claimVersusRevokeRound is one run of the hammer on a fresh scheduler;
// it returns how many claims hit and how many found the grant revoked.
func claimVersusRevokeRound(t *testing.T, parkers, submitters, rounds int, total, fwd, bwd int64) (int64, int64) {
	s := New(total, PolicyFCFSBackfill)
	ledger := obs.NewLedger(obs.LedgerConfig{})
	mustWire(t, s, Wiring{Ledger: ledger})

	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() { // the fit invariant, observed under the scheduler's own lock
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			if len(s.waiting) > 0 && s.fitLocked(s.waiting[0].bytes) {
				t.Errorf("head needs %d and waits with %d free + %d parked", s.waiting[0].bytes, s.avail, s.parkedBytes)
			}
			if s.avail < 0 || s.avail+s.parkedBytes > s.total {
				t.Errorf("overcommit: %d free, %d parked of %d", s.avail, s.parkedBytes, s.total)
			}
			s.mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	var hits, misses atomic.Int64
	wait := func(h Handle, id string, kind RequestKind, bytes int64) {
		done := make(chan struct{})
		if err := h.Submit(kind, bytes, func() { close(done) }); err != nil {
			t.Errorf("%s: %v", id, err)
			return
		}
		<-done
	}
	for p := 0; p < parkers; p++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			h, err := s.Enroll(id)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				wait(h, id, KindForward, fwd)
				if !h.Grow(bwd) {
					h.Complete()
					wait(h, id, KindBackward, bwd)
					h.Complete()
					continue
				}
				var revoked atomic.Int64
				h.Park(func() { revoked.Add(1) })
				runtime.Gosched() // the gradient wait: let a submitter in
				if h.Claim() {
					hits.Add(1)
					if revoked.Load() != 0 {
						t.Errorf("%s: claimed a grant whose revoke hook fired", id)
					}
				} else {
					misses.Add(1)
					if revoked.Load() != 1 {
						t.Errorf("%s: claim refused but the hook fired %d times", id, revoked.Load())
					}
					wait(h, id, KindBackward, bwd)
				}
				h.Complete()
				if revoked.Load() > 1 {
					t.Errorf("%s: hook fired %d times", id, revoked.Load())
				}
			}
		}(fmt.Sprintf("parker-%d", p))
	}
	// Submitters run for as long as any parker does: a fixed count could
	// be over before the first grant is parked, and the hammer would see
	// hits only.
	var needy sync.WaitGroup
	for q := 0; q < submitters; q++ {
		needy.Add(1)
		go func(id string) {
			defer needy.Done()
			h, err := s.Enroll(id)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				wait(h, id, KindBackward, 120)
				h.Complete()
				runtime.Gosched()
			}
		}(fmt.Sprintf("submitter-%d", q))
	}
	wg.Wait()
	close(stop)
	needy.Wait()
	checker.Wait()

	st := s.Stats()
	if st.Claimed != hits.Load() || st.Revoked != misses.Load() {
		t.Errorf("stats claimed %d revoked %d; parkers saw %d hits %d misses", st.Claimed, st.Revoked, hits.Load(), misses.Load())
	}
	if st.Granted != st.Completed+st.Revoked {
		t.Errorf("granted %d != completed %d + revoked %d", st.Granted, st.Completed, st.Revoked)
	}
	if s.Available() != total || s.Parked() != 0 || s.QueueDepth() != 0 {
		t.Errorf("available %d parked %d queued %d after the last complete", s.Available(), s.Parked(), s.QueueDepth())
	}
	for _, u := range ledger.Snapshot() {
		if u.TransientBytes != 0 {
			t.Errorf("%s: acquired and released bytes differ by %d", u.ID, u.TransientBytes)
		}
	}
	return hits.Load(), misses.Load()
}
