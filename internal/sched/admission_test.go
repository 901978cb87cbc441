package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"menos/internal/obs"
)

// testClock is a settable virtual clock for driving the admission
// controller deterministically.
type testClock struct{ now atomic.Int64 }

func (c *testClock) Now() time.Duration      { return time.Duration(c.now.Load()) }
func (c *testClock) set(d time.Duration)     { c.now.Store(int64(d)) }
func (c *testClock) advance(d time.Duration) { c.now.Add(int64(d)) }
func (c *testClock) clock() obs.Clock        { return obs.ClockFunc(func() time.Duration { return c.Now() }) }

// TestOversizeSubmitFailsFast is the regression test for the
// reserved-floor fix: a request larger than the total budget — or
// larger than what remains above long-lived reservations — must fail
// with ErrNeverFits at Submit instead of queueing forever.
func TestOversizeSubmitFailsFast(t *testing.T) {
	t.Run("exceeds total", func(t *testing.T) {
		s := New(100, PolicyFCFSBackfill)
		err := s.Submit("a", KindBackward, 101, func() {})
		if !errors.Is(err, ErrNeverFits) {
			t.Fatalf("err = %v, want ErrNeverFits", err)
		}
		if s.QueueDepth() != 0 {
			t.Fatalf("oversize request was queued (depth %d)", s.QueueDepth())
		}
	})
	t.Run("exceeds reserved floor", func(t *testing.T) {
		s := New(100, PolicyFCFSBackfill)
		kv := mustEnroll(t, s, "kv")
		if err := kv.Reserve(60); err != nil {
			t.Fatal(err)
		}
		if s.Schedulable() != 40 {
			t.Fatalf("schedulable = %d, want 40", s.Schedulable())
		}
		// 41 bytes fit in the total but can never fit above the
		// reservation: before the fix this queued forever.
		err := s.Submit("a", KindBackward, 41, func() {})
		if !errors.Is(err, ErrNeverFits) {
			t.Fatalf("err = %v, want ErrNeverFits", err)
		}
		if s.QueueDepth() != 0 {
			t.Fatalf("never-fits request was queued (depth %d)", s.QueueDepth())
		}
		// Forgetting its client releases the reservation and restores
		// the full budget.
		kv.Forget()
		granted := false
		if err := s.Submit("a", KindBackward, 41, func() { granted = true }); err != nil {
			t.Fatal(err)
		}
		if !granted {
			t.Fatal("request not granted after reservation release")
		}
	})
}

// rep builds n copies of the same wait for table steps.
func rep(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// TestAdmissionHysteresis drives the full Open → Throttled → Shedding
// → Throttled → Open cycle on a virtual clock: escalation is
// immediate, de-escalation takes one rung per calm dwell.
//
// SLO: target 1s → window 8s, throttle at 0.7s, shed at 1s, reopen
// below 0.5s, dwell 2s, MinSamples 8. Waits land in the obs duration
// buckets, so a batch of 800ms waits reads back as a p99 of ~0.99s
// (inside the (0.5s, 1s] bucket): above the throttle threshold, below
// the shed threshold.
func TestAdmissionHysteresis(t *testing.T) {
	clk := &testClock{}
	a := newAdmissionController(SLO{TargetP99: time.Second}, clk.Now())

	steps := []struct {
		name    string
		at      time.Duration
		waits   []time.Duration
		headAge time.Duration
		want    AdmissionState
	}{
		{"fast waits keep it open", 0, rep(8, 100*time.Millisecond), 0, StateOpen},
		{"waits near target throttle", 1 * time.Second, rep(8, 800*time.Millisecond), 0, StateThrottled},
		{"stalled head sheds", 2 * time.Second, nil, 3 * time.Second, StateShedding},
		{"sustained pressure holds", 3 * time.Second, nil, 3 * time.Second, StateShedding},
		{"calm starts the dwell", 20 * time.Second, nil, 0, StateShedding},
		{"dwell served: one rung down", 23 * time.Second, nil, 0, StateThrottled},
		{"calm again after transition", 26 * time.Second, nil, 0, StateThrottled},
		{"second dwell: fully open", 29 * time.Second, nil, 0, StateOpen},
	}
	for _, step := range steps {
		clk.set(step.at)
		for _, w := range step.waits {
			a.observe(step.at, w)
		}
		a.evaluate(step.at, step.headAge)
		if a.state != step.want {
			t.Fatalf("%s: state = %v, want %v (p99 %v)", step.name, a.state, step.want, a.lastP99)
		}
	}
	if a.transitions != 4 {
		t.Fatalf("transitions = %d, want 4", a.transitions)
	}
}

// TestAdmitPerState checks the per-state admit decision: Open admits
// all, Throttled sheds each client's every second submission with a
// halved hint, Shedding rejects everything with the full hint.
func TestAdmitPerState(t *testing.T) {
	clk := &testClock{}
	a := newAdmissionController(SLO{TargetP99: time.Second}, clk.Now())
	var c int64 // the submitting client's throttle parity (ident.ticks)

	if err := a.admit(&c); err != nil {
		t.Fatalf("open: %v", err)
	}

	a.transition(StateThrottled)
	admitted, shed := 0, 0
	for i := 0; i < 10; i++ {
		if err := a.admit(&c); err != nil {
			var ov *OverloadError
			if !errors.As(err, &ov) || !errors.Is(err, ErrOverloaded) {
				t.Fatalf("throttled: wrong error type: %v", err)
			}
			if ov.RetryAfter != a.slo.TargetP99/2 {
				t.Fatalf("throttled retry hint = %v, want %v", ov.RetryAfter, a.slo.TargetP99/2)
			}
			shed++
		} else {
			admitted++
		}
	}
	if admitted != 5 || shed != 5 {
		t.Fatalf("throttled admitted %d / shed %d, want 5/5", admitted, shed)
	}

	a.transition(StateShedding)
	for i := 0; i < 3; i++ {
		err := a.admit(&c)
		var ov *OverloadError
		if !errors.As(err, &ov) {
			t.Fatalf("shedding: admit returned %v", err)
		}
		if ov.RetryAfter != a.slo.TargetP99 {
			t.Fatalf("shedding retry hint = %v, want %v", ov.RetryAfter, a.slo.TargetP99)
		}
	}
}

// TestThrottledShedIsPerClientFair is the regression test for the
// client-blind parity shed: with a global tick and a strict A,B,A,B…
// interleave, B's submissions always landed on the even (shed) slots —
// B was starved outright while A was never shed. The per-client parity
// must shed both clients at the same rate regardless of interleaving.
func TestThrottledShedIsPerClientFair(t *testing.T) {
	clk := &testClock{}
	a := newAdmissionController(SLO{TargetP99: time.Second}, clk.Now())
	a.transition(StateThrottled)

	ticks := map[string]*int64{"a": new(int64), "b": new(int64)} // each client's record's parity
	shedBy := map[string]int{}
	admittedBy := map[string]int{}
	for i := 0; i < 20; i++ { // strict alternation: a,b,a,b,…
		id := "a"
		if i%2 == 1 {
			id = "b"
		}
		if err := a.admit(ticks[id]); err != nil {
			shedBy[id]++
		} else {
			admittedBy[id]++
		}
	}
	for _, id := range []string{"a", "b"} {
		if admittedBy[id] != 5 || shedBy[id] != 5 {
			t.Fatalf("client %s: admitted %d / shed %d, want 5/5 (per-client rate-halving)",
				id, admittedBy[id], shedBy[id])
		}
	}
}

// TestSchedulerShedsUnderStall drives shedding through the public API:
// a stalled queue head ages past the shed threshold, so the next
// Submit is rejected with a typed, retryable error and is not queued.
func TestSchedulerShedsUnderStall(t *testing.T) {
	clk := &testClock{}
	s := New(100, PolicyFCFSBackfill)
	reg := obs.NewRegistry()
	mustWire(t, s, Wiring{Metrics: reg, Clock: clk.clock(), SLO: SLO{TargetP99: time.Second}})
	var c collector
	mustSubmit(t, s, "a", KindBackward, 100, c.grant("a")) // holds everything
	mustSubmit(t, s, "b", KindBackward, 100, c.grant("b")) // queues behind a
	clk.advance(5 * time.Second)                           // head far past the 1s target

	err := s.Submit("c", KindBackward, 10, c.grant("c"))
	var ov *OverloadError
	if !errors.As(err, &ov) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("retry hint = %v, want > 0", ov.RetryAfter)
	}
	if s.Load().Admission != StateShedding {
		t.Fatalf("state = %v, want shedding", s.Load().Admission)
	}
	if s.QueueDepth() != 1 {
		t.Fatalf("shed request was queued (depth %d)", s.QueueDepth())
	}
	if st := s.AdmissionStats(); st.Shed != 1 {
		t.Fatalf("shed count = %d, want 1", st.Shed)
	}
	// The exported families an operator's shed-storm and burn-rate
	// rules read: the shed counter is the stats count, and the target
	// gauge advertises the 1s SLO in microseconds.
	if got := reg.Counter(obs.MetricSchedAdmissionShed).Value(); got != s.AdmissionStats().Shed {
		t.Fatalf("%s = %d, want %d", obs.MetricSchedAdmissionShed, got, s.AdmissionStats().Shed)
	}
	if got := reg.Gauge(obs.MetricSchedAdmissionSLOTarget).Value(); got != 1_000_000 {
		t.Fatalf("%s = %d, want 1000000", obs.MetricSchedAdmissionSLOTarget, got)
	}

	// Draining the queue and letting the window go calm reopens the
	// scheduler; the once-shed client is admitted on retry.
	s.Complete("a")
	s.Complete("b")
	clk.advance(time.Minute)
	for s.Load().Admission != StateOpen {
		s.Complete("drain-tick") // no-op; schedule() re-evaluates
		clk.advance(5 * time.Second)
	}
	if err := s.Submit("c", KindBackward, 10, c.grant("c")); err != nil {
		t.Fatalf("retry after reopen: %v", err)
	}
}

// TestAdmissionDisabledIsInert: without an SLO the scheduler
// must behave exactly as before — this pins the admission-off fast
// path used by the byte-identical-experiments guarantee.
func TestAdmissionDisabledIsInert(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	if s.Load().Admission != StateOpen {
		t.Fatalf("state = %v, want open", s.Load().Admission)
	}
	if st := s.AdmissionStats(); st != (AdmissionStats{}) {
		t.Fatalf("stats = %+v, want zero", st)
	}
	if err := s.Wire(Wiring{}); err != nil {
		t.Fatalf("wiring nothing must be a no-op, got %v", err)
	}
	if err := s.Wire(Wiring{SLO: SLO{TargetP99: time.Second}}); err == nil {
		t.Fatal("enabled SLO with nil clock must error")
	}
	if err := s.Wire(Wiring{Metrics: obs.NewRegistry()}); err == nil {
		t.Fatal("registry with nil clock must error")
	}
}

// TestConcurrentSubmitCompleteUnderAdmission hammers Submit/Complete
// from many goroutines while the virtual clock races forward, flipping
// the controller through its states. Run with -race; the invariant is
// no data race, no leaked memory, and every submission either granted
// or typed-rejected.
func TestConcurrentSubmitCompleteUnderAdmission(t *testing.T) {
	clk := &testClock{}
	s := New(1000, PolicyFCFSBackfill)
	mustWire(t, s, Wiring{Clock: clk.clock(), SLO: SLO{TargetP99: time.Millisecond, Window: 8 * time.Millisecond}})

	stop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.advance(100 * time.Microsecond)
			}
		}
	}()

	var granted, shed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := string(rune('a'+base)) + string(rune('0'+i%10))
				done := make(chan struct{})
				err := s.Submit(id, KindBackward, 200, func() { close(done) })
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					shed.Add(1)
					continue
				}
				<-done
				granted.Add(1)
				s.Complete(id)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	ticker.Wait()

	if s.Available() != 1000 {
		t.Fatalf("leaked memory: avail = %d", s.Available())
	}
	if granted.Load() == 0 {
		t.Fatal("nothing was granted")
	}
	if got := s.AdmissionStats().Shed; got != shed.Load() {
		t.Fatalf("shed counter = %d, callers saw %d", got, shed.Load())
	}
}

// TestThrottledParityGoesWithTheRecord: admission keeps each identity's
// throttle parity on its record in the identity table. A resident
// client's record stays, so its submissions are still shed every second
// one; a batch's members are admitted on their own records, so 10,000
// throttled batches under fresh batch IDs shed every second one of them
// whole, and a batch ID's record goes with its batch, leaving the table
// holding the live identities only — the eight enrolled members.
func TestThrottledParityGoesWithTheRecord(t *testing.T) {
	clk := &testClock{}
	s := New(100, PolicyFCFSBackfill)
	mustWire(t, s, Wiring{Clock: clk.clock(), SLO: SLO{TargetP99: time.Second}})
	s.mu.Lock()
	s.adm.transition(StateThrottled) // the clock stands still, so it stays
	s.mu.Unlock()
	grant := func() {}

	c := mustEnroll(t, s, "c")
	shed := 0
	for i := 0; i < 10; i++ {
		if err := c.Submit(KindForward, 10, grant); errors.Is(err, ErrOverloaded) {
			shed++
		}
		c.Complete()
	}
	if shed != 5 {
		t.Errorf("resident client shed %d of 10 throttled submissions, want 5", shed)
	}
	c.Forget()

	members := make([]BatchMember, 8)
	for i := range members {
		members[i] = BatchMember{Client: mustEnroll(t, s, fmt.Sprintf("m%d", i)), Bytes: 5}
	}
	shed = 0
	for i := 0; i < 10_000; i++ {
		id := fmt.Sprintf("batch-%d", i)
		err := s.SubmitBatch(id, KindForward, members, grant)
		switch {
		case errors.Is(err, ErrOverloaded):
			shed++
		case err != nil:
			t.Fatalf("batch %s: %v", id, err)
		}
		for _, m := range members {
			if (m.Err != nil) != (err != nil) {
				t.Fatalf("batch %s: member verdict %v beside batch verdict %v", id, m.Err, err)
			}
		}
		s.Complete(id)
	}
	if shed != 5_000 {
		t.Errorf("%d of 10,000 throttled batches shed, want every second one", shed)
	}
	if st := s.Load().Admission; st != StateThrottled {
		t.Fatalf("admission left Throttled for %v", st)
	}
	if n := s.Stats().Identities; n > len(members) {
		t.Errorf("identity table holds %d records after 10,000 throttled batches, want at most the %d live members", n, len(members))
	}
}

// TestThrottledBatchShedsMembers: while Throttled, each member of a
// batch is admitted on its own record's parity. Eight enrolled members,
// half of them one submission ahead, ride n batches: each member is shed
// n/2 ± 1 times — exactly as often as n serial submissions of its own
// are — with the same retry hint and one ledger shed per shed, and every
// batch goes ahead with the other half and only their bytes.
func TestThrottledBatchShedsMembers(t *testing.T) {
	const n, bytes = 100, 5
	slo := SLO{TargetP99: time.Second}
	throttled := func() (*Scheduler, *obs.Ledger) {
		clk := &testClock{}
		s := New(100, PolicyFCFSBackfill)
		led := obs.NewLedger(obs.LedgerConfig{Clock: clk.clock()})
		mustWire(t, s, Wiring{Clock: clk.clock(), Ledger: led, SLO: slo})
		s.mu.Lock()
		s.adm.transition(StateThrottled) // the clock stands still, so it stays
		s.mu.Unlock()
		return s, led
	}
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}
	// headStart puts the odd members one admitted submission ahead.
	headStart := func(s *Scheduler) {
		for i := 1; i < len(ids); i += 2 {
			mustSubmit(t, s, ids[i], KindForward, bytes, func() {})
			s.Complete(ids[i])
		}
	}

	serial := map[string]int{}
	s, _ := throttled()
	headStart(s)
	for _, id := range ids {
		for i := 0; i < n; i++ {
			if err := s.Submit(id, KindForward, bytes, func() {}); errors.Is(err, ErrOverloaded) {
				serial[id]++
			}
			s.Complete(id)
		}
	}

	s, led := throttled()
	members := make([]BatchMember, len(ids))
	for i, id := range ids {
		members[i] = BatchMember{Client: mustEnroll(t, s, id), Bytes: bytes}
	}
	headStart(s)
	batched := map[string]int{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("batch-%d", i)
		granted := false
		if err := s.SubmitBatch(id, KindForward, members, func() { granted = true }); err != nil {
			t.Fatalf("batch %s refused whole: %v", id, err)
		}
		kept := 0
		for j, m := range members {
			var ov *OverloadError
			switch {
			case m.Err == nil:
				kept++
			case !errors.As(m.Err, &ov) || ov.State != StateThrottled || ov.RetryAfter != slo.TargetP99/2:
				t.Fatalf("batch %s: member %s shed with %v, want a throttled shed retrying after %v", id, ids[j], m.Err, slo.TargetP99/2)
			default:
				batched[ids[j]]++
			}
		}
		if !granted || kept != len(ids)/2 {
			t.Fatalf("batch %s: granted %v with %d members, want it granted with %d", id, granted, kept, len(ids)/2)
		}
		if got := s.Complete(id); got != int64(kept*bytes) {
			t.Fatalf("batch %s held %d bytes, want its %d members' %d", id, got, kept, kept*bytes)
		}
	}

	var total int64
	for _, id := range ids {
		if d := batched[id] - n/2; d < -1 || d > 1 {
			t.Errorf("member %s shed %d of %d throttled batches, want %d ± 1", id, batched[id], n, n/2)
		}
		if batched[id] != serial[id] {
			t.Errorf("member %s shed %d times as a member, %d times on its own", id, batched[id], serial[id])
		}
		if u, _ := led.Usage(id); u.Sheds != int64(batched[id]) {
			t.Errorf("member %s: ledger counts %d sheds, want %d", id, u.Sheds, batched[id])
		}
		total += int64(batched[id])
	}
	if st := s.AdmissionStats(); st.Shed != total {
		t.Errorf("admission counts %d sheds, members saw %d", st.Shed, total)
	}
	if got := s.Stats().Submitted; got != int64(len(ids)/2+n) {
		t.Errorf("%d submissions queued, want the %d head starts and all %d batches", got, len(ids)/2, n)
	}
}

// TestStaleHandlesAreRefused: a handle names a current enrollment in
// its scheduler or nothing. After Forget it is refused, as a batch
// member and in its own calls, also once its record has been reused for
// another identity, whose enrollment a stale Forget does not end; a
// handle from another scheduler is refused as a member; a refused batch
// takes nothing. An enrolled ID cannot be enrolled again while its
// handle is live. An enrolled record outlives a refused batch and an
// idle period, though it is not resident.
func TestStaleHandlesAreRefused(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	grant := func() {}
	submit := func(id string, h Handle) error {
		return s.SubmitBatch(id, KindForward, []BatchMember{{Client: h, Bytes: 5}}, grant)
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, errNotEnrolled) {
			t.Errorf("%s: err = %v, want errNotEnrolled", what, err)
		}
		if s.QueueDepth() != 0 || s.Available() != 100 {
			t.Errorf("%s: queue %d, available %d after a refusal", what, s.QueueDepth(), s.Available())
		}
	}

	a := mustEnroll(t, s, "a")
	refused("zero handle", submit("b0", Handle{}))
	// The enrolled record outlives a refused batch and an idle period.
	if err := s.SubmitBatch("b1", KindForward, []BatchMember{{Client: a, Bytes: 5}, {Client: a, Bytes: 5}}, grant); !errors.Is(err, ErrOutstanding) {
		t.Fatalf("duplicate member: err = %v", err)
	}
	if n := s.Stats().Identities; n != 1 {
		t.Errorf("%d identities after a refused batch, want a's enrolled record", n)
	}
	for i := 0; i < 100; i++ {
		mustSubmit(t, s, fmt.Sprintf("other-%d", i%3), KindForward, 1, grant)
		s.Complete(fmt.Sprintf("other-%d", i%3))
	}
	if n := s.Stats().Identities; n != 4 {
		t.Errorf("%d identities after an idle period, want a's enrolled record and the three resident others", n)
	}
	s.mu.Lock()
	rec := a.rec
	resident := rec.resident
	s.mu.Unlock()
	if resident {
		t.Error("a is resident before its first grant")
	}
	if err := submit("b2", a); err != nil {
		t.Fatalf("enrolled member after an idle period: %v", err)
	}
	s.Complete("b2")

	a.Forget()
	refused("after Forget", submit("b3", a))
	refused("a forgotten handle's own submission", a.Submit(KindForward, 5, grant))
	// a's record goes back to the free list, and the next new identity
	// takes it: the stale handle must not submit as that identity.
	b := mustEnroll(t, s, "b")
	s.mu.Lock()
	reused := b.rec == rec
	s.mu.Unlock()
	if !reused {
		t.Fatal("b did not reuse a's record; the test needs it to")
	}
	refused("after the record was reused", submit("b4", a))
	refused("a stale handle's own submission on a reused record", a.Submit(KindForward, 5, grant))
	a.Forget() // stale: must not end b's enrollment on the reused record
	if err := submit("b5", b); err != nil {
		t.Fatalf("b's own handle after a stale Forget: %v", err)
	}
	s.Complete("b5")

	// Enrolling an enrolled ID is refused, and the live handle keeps
	// working.
	if _, err := s.Enroll("b"); !errors.Is(err, ErrOutstanding) {
		t.Fatalf("second enrollment of b: err = %v, want ErrOutstanding", err)
	}
	if err := submit("b7", b); err != nil {
		t.Fatalf("b's handle after a refused enrollment: %v", err)
	}
	s.Complete("b7")

	other := New(100, PolicyFCFSBackfill)
	foreign := mustEnroll(t, other, "b")
	refused("a handle from another scheduler", submit("b8", foreign))
	if err := submit("b9", b); err != nil {
		t.Fatalf("b's handle beside a foreign one: %v", err)
	}
	s.Complete("b9")
}

// TestAdmissionStateTicksThroughIdleTime: reading the state of a
// shedding scheduler left idle lands where a twin evaluated at every
// slice boundary of the same stretch lands, through the same
// transitions: open, once the window has emptied and a dwell has passed
// per rung, though nobody submitted.
func TestAdmissionStateTicksThroughIdleTime(t *testing.T) {
	shedding := func() (*Scheduler, *testClock) {
		clk := &testClock{}
		s := New(100, PolicyFCFSBackfill)
		mustWire(t, s, Wiring{Clock: clk.clock(), SLO: SLO{TargetP99: time.Second}})
		var c collector
		mustSubmit(t, s, "a", KindBackward, 100, c.grant("a"))
		mustSubmit(t, s, "b", KindBackward, 100, c.grant("b"))
		clk.advance(5 * time.Second)
		if err := s.Submit("c", KindBackward, 10, c.grant("c")); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submission behind a 5s head: %v, want a shed", err)
		}
		s.Complete("a")
		s.Complete("b")
		return s, clk
	}
	read, readClk := shedding()
	ticked, tickedClk := shedding()
	slice := read.adm.sliceDur
	for i := 0; i < 20; i++ {
		tickedClk.advance(slice)
		ticked.Complete("tick") // a release evaluates, nothing else
	}
	if st := read.Load().Admission; st != StateShedding {
		t.Fatalf("state before the idle stretch %v, want shedding", st)
	}
	readClk.advance(20 * slice)
	if got, want := read.Load().Admission, ticked.Load().Admission; got != StateOpen || want != StateOpen {
		t.Fatalf("after 20 idle slices: read %v, ticked %v, want open", got, want)
	}
	if got, want := read.AdmissionStats(), ticked.AdmissionStats(); got != want {
		t.Fatalf("read %+v, ticked %+v", got, want)
	}
}
