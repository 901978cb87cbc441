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
		if err := s.Reserve("kv", 60); err != nil {
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
		// Releasing the reservation restores the full budget.
		s.Complete("kv")
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
	a := newAdmissionController(SLO{TargetP99: time.Second}, clk.clock())

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
	a := newAdmissionController(SLO{TargetP99: time.Second}, clk.clock())
	var c int64 // the submitting client's throttle parity (ident.ticks)

	if err := a.admit(&c); err != nil {
		t.Fatalf("open: %v", err)
	}

	a.transition(StateThrottled, 0)
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

	a.transition(StateShedding, 0)
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
	a := newAdmissionController(SLO{TargetP99: time.Second}, clk.clock())
	a.transition(StateThrottled, 0)

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
	s.Instrument(reg, clk.clock())
	if err := s.EnableAdmission(SLO{TargetP99: time.Second}, clk.clock()); err != nil {
		t.Fatal(err)
	}
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
	if s.AdmissionState() != StateShedding {
		t.Fatalf("state = %v, want shedding", s.AdmissionState())
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
	for s.AdmissionState() != StateOpen {
		s.Complete("drain-tick") // no-op; schedule() re-evaluates
		clk.advance(5 * time.Second)
	}
	if err := s.Submit("c", KindBackward, 10, c.grant("c")); err != nil {
		t.Fatalf("retry after reopen: %v", err)
	}
}

// TestAdmissionDisabledIsInert: without EnableAdmission the scheduler
// must behave exactly as before — this pins the admission-off fast
// path used by the byte-identical-experiments guarantee.
func TestAdmissionDisabledIsInert(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	if s.AdmissionState() != StateOpen {
		t.Fatalf("state = %v, want open", s.AdmissionState())
	}
	if st := s.AdmissionStats(); st != (AdmissionStats{}) {
		t.Fatalf("stats = %+v, want zero", st)
	}
	if err := s.EnableAdmission(SLO{}, nil); err != nil {
		t.Fatalf("disabled SLO must be a no-op, got %v", err)
	}
	if err := s.EnableAdmission(SLO{TargetP99: time.Second}, nil); err == nil {
		t.Fatal("enabled SLO with nil clock must error")
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
	if err := s.EnableAdmission(SLO{TargetP99: time.Millisecond, Window: 8 * time.Millisecond}, clk.clock()); err != nil {
		t.Fatal(err)
	}

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
// one; a batch ID's record goes with its batch, so 10,000 throttled
// submissions under fresh batch IDs leave the table holding the live
// identities only — the eight resident members. (The parity of a fresh
// ID starts over, so a batch's first throttled submission is never shed;
// docs/ADMISSION.md.)
func TestThrottledParityGoesWithTheRecord(t *testing.T) {
	clk := &testClock{}
	s := New(100, PolicyFCFSBackfill)
	if err := s.EnableAdmission(SLO{TargetP99: time.Second}, clk.clock()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.adm.transition(StateThrottled, 0) // the clock stands still, so it stays
	s.mu.Unlock()
	grant := func() {}

	shed := 0
	for i := 0; i < 10; i++ {
		if err := s.Submit("c", KindForward, 10, grant); errors.Is(err, ErrOverloaded) {
			shed++
		}
		s.Complete("c")
	}
	if shed != 5 {
		t.Errorf("resident client shed %d of 10 throttled submissions, want 5", shed)
	}
	s.Forget("c")

	members := make([]BatchMember, 8)
	for i := range members {
		members[i] = BatchMember{ClientID: fmt.Sprintf("m%d", i), Bytes: 5}
	}
	for i := 0; i < 10_000; i++ {
		id := fmt.Sprintf("batch-%d", i)
		if err := s.SubmitBatch(id, KindForward, members, grant); err != nil {
			t.Fatalf("fresh batch %s: %v", id, err)
		}
		s.Complete(id)
	}
	if st := s.AdmissionState(); st != StateThrottled {
		t.Fatalf("admission left Throttled for %v", st)
	}
	if n := s.Stats().Identities; n > len(members) {
		t.Errorf("identity table holds %d records after 10,000 throttled batches, want at most the %d live members", n, len(members))
	}
}
