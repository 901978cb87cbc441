// Adaptive, SLO-aware admission control (the first closed feedback
// loop from telemetry back into scheduling): a sliding-window p99 of
// grant wait is compared against a configured latency objective and
// the scheduler moves between three states —
//
//   - Open: admit everything, aggressive backfill (the plain
//     Algorithm-2 behaviour).
//   - Throttled: shed every second submission per client
//     (deterministic rate-halving with a short retry hint — per-client
//     so one chatty client cannot shift the parity and starve others),
//     defer non-resident clients (no backfill for clients that have
//     never been granted) and backfill conservatively (small
//     forward-class requests only), protecting the queue head.
//   - Shedding: reject new Submits with ErrOverloaded and a
//     retry-after hint. Rejection is deadlock-safe because a client
//     can never Submit while holding memory (ErrOutstanding).
//
// Escalation (Open→Throttled→Shedding) is immediate; de-escalation
// requires the pressure signal to stay below the re-open threshold for
// a dwell period, giving the loop hysteresis instead of flapping.
package sched

import (
	"errors"
	"fmt"
	"time"

	"menos/internal/obs"
)

// ErrOverloaded is the sentinel matched by errors.Is for rejections
// issued while the admission controller is shedding load. The concrete
// error is always an *OverloadError carrying the retry-after hint.
var ErrOverloaded = errors.New("sched: overloaded, retry later")

// OverloadError reports a shed submission: the state that caused it,
// the pressure measurement that tripped it, and how long the caller
// should wait before retrying.
type OverloadError struct {
	State      AdmissionState
	P99        time.Duration // effective p99 grant wait at rejection time
	SLO        time.Duration // the configured target
	RetryAfter time.Duration // backoff hint
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("sched: overloaded (state %s, p99 wait %v, slo %v): retry after %v",
		e.State, e.P99.Round(time.Millisecond), e.SLO, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) work.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// AdmissionState is the controller's position in the Open → Throttled
// → Shedding ladder.
type AdmissionState int

// Admission states, ordered by pressure.
const (
	StateOpen AdmissionState = iota
	StateThrottled
	StateShedding
)

// String returns the state name.
func (s AdmissionState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateThrottled:
		return "throttled"
	case StateShedding:
		return "shedding"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// SLO configures the admission controller. The zero value disables
// admission control entirely (Enabled() == false), in which case the
// scheduler's behaviour is bit-identical to the plain Algorithm-2
// policy.
type SLO struct {
	// TargetP99 is the grant-wait objective: the controller tries to
	// keep the sliding-window p99 of submit→grant latency at or below
	// this. Zero disables admission control.
	TargetP99 time.Duration
	// Window is the sliding measurement window (default 8×TargetP99).
	Window time.Duration
}

// The controller's fixed tuning; the thresholds are fractions of
// SLO.TargetP99. Escalations are immediate, de-escalation waits a dwell
// of Window/4, and a shed carries TargetP99 as its backoff hint.
const (
	// throttleFactor enters Throttled at p99 ≥ throttleFactor×TargetP99.
	throttleFactor = 0.7
	// shedFactor enters Shedding at p99 ≥ shedFactor×TargetP99.
	shedFactor = 1.0
	// reopenFactor de-escalates one state when p99 <
	// reopenFactor×TargetP99 for a full dwell.
	reopenFactor = 0.5
	// minSamples gates escalation on window population, so one slow
	// grant after an idle period cannot throttle the scheduler. The
	// queue-head age bypasses this: a head older than the throttle
	// threshold is overload evidence regardless of sample count.
	minSamples = 8
)

// Enabled reports whether this SLO activates admission control.
func (s SLO) Enabled() bool { return s.TargetP99 > 0 }

// withDefaults fills an unset Window.
func (s SLO) withDefaults() SLO {
	if s.Window <= 0 {
		s.Window = 8 * s.TargetP99
	}
	return s
}

// admissionWindowSlices is the ring resolution: the window is covered
// by this many bucket-array slices, expired one at a time as the clock
// advances (so the p99 "slides" with slice granularity).
const admissionWindowSlices = 8

// admSlice is one time slice of grant-wait observations, bucketed over
// the same bounds as the obs wait histogram.
type admSlice struct {
	counts []int64 // len(bounds)+1, last is +Inf
	total  int64
}

func (s *admSlice) reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.total = 0
}

// AdmissionController implements the state machine. It is owned by a
// Scheduler and only ever touched under the scheduler's mutex, so it
// needs no locking of its own. It keeps no clock: the scheduler hands it
// each instant on its own clock, and counts its sheds.
type AdmissionController struct {
	slo SLO

	bounds   []float64 // histogram bounds, seconds (obs.DurationBuckets)
	slices   [admissionWindowSlices]admSlice
	sliceDur time.Duration
	curIdx   int64 // absolute slice index of slices[curIdx%N]

	state       AdmissionState
	last        time.Duration // the instant of the last evaluation
	calmSince   time.Duration // start of the current below-reopen streak
	calm        bool
	transitions int64
	deferred    int64
	lastP99     time.Duration

	// hook observes state transitions (Wiring.AdmissionHook).
	hook func(from, to AdmissionState)
}

// newAdmissionController builds a controller for an enabled SLO, opened
// at now.
func newAdmissionController(slo SLO, now time.Duration) *AdmissionController {
	a := &AdmissionController{
		slo:    slo.withDefaults(),
		bounds: obs.DurationBuckets(),
	}
	a.sliceDur = a.slo.Window / admissionWindowSlices
	if a.sliceDur <= 0 {
		a.sliceDur = time.Millisecond
	}
	for i := range a.slices {
		a.slices[i].counts = make([]int64, len(a.bounds)+1)
	}
	a.curIdx = int64(now / a.sliceDur)
	a.last = now
	return a
}

// advance rotates the slice ring so slices[curIdx] covers now,
// clearing everything that fell out of the window.
func (a *AdmissionController) advance(now time.Duration) {
	idx := int64(now / a.sliceDur)
	if idx <= a.curIdx {
		return
	}
	if idx-a.curIdx >= admissionWindowSlices {
		for i := range a.slices {
			a.slices[i].reset()
		}
	} else {
		for i := a.curIdx + 1; i <= idx; i++ {
			a.slices[i%admissionWindowSlices].reset()
		}
	}
	a.curIdx = idx
}

// observe records one grant wait into the current slice.
func (a *AdmissionController) observe(now, wait time.Duration) {
	a.advance(now)
	sec := wait.Seconds()
	i := 0
	for i < len(a.bounds) && sec > a.bounds[i] {
		i++
	}
	sl := &a.slices[a.curIdx%admissionWindowSlices]
	sl.counts[i]++
	sl.total++
}

// windowSnapshot merges the live slices into an obs histogram snapshot.
func (a *AdmissionController) windowSnapshot() obs.HistSnapshot {
	s := obs.HistSnapshot{Bounds: a.bounds, Counts: make([]int64, len(a.bounds)+1)}
	for i := range a.slices {
		for j, c := range a.slices[i].counts {
			s.Counts[j] += c
		}
		s.Count += a.slices[i].total
	}
	return s
}

// effectiveP99 is the pressure signal: the window p99 of completed
// waits, raised to the age of the oldest still-waiting request. The
// second term matters under severe overload, when nothing is being
// granted and the wait histogram alone would go quiet.
func (a *AdmissionController) effectiveP99(snap obs.HistSnapshot, headAge time.Duration) time.Duration {
	var p99 time.Duration
	if snap.Count > 0 {
		p99 = time.Duration(snap.Quantile(0.99) * float64(time.Second))
	}
	if headAge > p99 {
		p99 = headAge
	}
	return p99
}

// evaluate runs one step of the state machine. headAge is the age of
// the oldest waiting request (0 for an empty queue). Caller holds the
// scheduler mutex.
func (a *AdmissionController) evaluate(now, headAge time.Duration) {
	a.last = now
	a.advance(now)
	snap := a.windowSnapshot()
	p99 := a.effectiveP99(snap, headAge)
	a.lastP99 = p99

	throttleAt := time.Duration(throttleFactor * float64(a.slo.TargetP99))
	shedAt := time.Duration(shedFactor * float64(a.slo.TargetP99))
	reopenAt := time.Duration(reopenFactor * float64(a.slo.TargetP99))

	// Escalation needs either a populated window or direct queue-head
	// evidence; either way it takes effect immediately.
	evidence := snap.Count >= minSamples || headAge >= throttleAt
	if evidence {
		if p99 >= shedAt && a.state != StateShedding {
			a.transition(StateShedding)
			return
		}
		if p99 >= throttleAt && a.state == StateOpen {
			a.transition(StateThrottled)
			return
		}
	}

	// De-escalation: one rung at a time, only after the signal has
	// stayed below the re-open threshold for a full dwell.
	if a.state == StateOpen {
		a.calm = false
		return
	}
	if p99 >= reopenAt {
		a.calm = false
		return
	}
	if !a.calm {
		a.calm = true
		a.calmSince = now
		return
	}
	if now-a.calmSince >= a.slo.Window/4 {
		a.transition(a.state - 1)
	}
}

// settleTicks bounds settle's replay: an empty queue reopens the
// controller within two windows of slice boundaries (the window empties,
// then a dwell per rung), and a head queued through more is far past the
// shed threshold, so the evaluation at now decides alone.
const settleTicks = 4 * admissionWindowSlices

// settle evaluates at every slice boundary since the last evaluation,
// then at now if that is later (a second evaluation at one instant would
// restart a calm dwell), headAge(t) being the queue head's age at t: the
// state a controller ticking on the scheduler's clock would hold. Every
// submission and release evaluates, so in between only the window
// expires and the head ages. Open with nothing queued, time alone
// changes nothing. Caller holds the scheduler mutex.
func (a *AdmissionController) settle(now time.Duration, headAge func(time.Duration) time.Duration) {
	idle := headAge(now) == 0
	for t, n := (a.last/a.sliceDur+1)*a.sliceDur, 0; t < now && n < settleTicks; t, n = t+a.sliceDur, n+1 {
		if idle && a.state == StateOpen {
			break
		}
		a.evaluate(t, headAge(t))
	}
	if now > a.last {
		a.evaluate(now, headAge(now))
	}
}

// transition moves to state and counts the transition. The hook,
// if set, fires under the scheduler mutex — it must hand real work off
// (see Wiring.AdmissionHook).
func (a *AdmissionController) transition(state AdmissionState) {
	from := a.state
	a.state = state
	a.calm = false
	a.transitions++
	if a.hook != nil && from != state {
		a.hook(from, state)
	}
}

// admit decides one client's submission, on its own or as a batch
// member; ticks is that identity's throttle parity, kept on its record
// in the scheduler's identity table (ident.ticks). A batch ID has no
// parity: each of its members is decided here on its own.
// Returns nil (admit) or an *OverloadError (reject), which the caller
// counts as a shed. Caller holds the scheduler mutex and has already
// called evaluate for this instant.
//
// Open admits everything. Throttled sheds each client's every second
// submission — deterministic rate-halving, with half the usual retry
// hint, that relieves queue pressure gradually instead of the
// admit-everything / shed-everything oscillation a two-state
// controller produces (shed clients back off together and return as a
// thundering herd). The parity is tracked per client: a global tick
// would let one chatty client absorb all the odd slots and starve a
// client whose submissions happen to land on the even ones. Shedding
// rejects everything.
func (a *AdmissionController) admit(ticks *int64) error {
	retry := a.slo.TargetP99
	switch a.state {
	case StateShedding:
	case StateThrottled:
		if *ticks++; *ticks%2 != 0 {
			return nil
		}
		retry /= 2
	default:
		return nil
	}
	return &OverloadError{
		State:      a.state,
		P99:        a.lastP99,
		SLO:        a.slo.TargetP99,
		RetryAfter: retry,
	}
}

// backfillAllowed reports whether a backfill grant for req is permitted
// in the current state. Open allows everything (aggressive backfill);
// Throttled and Shedding only let small forward-class requests from
// resident clients jump the queue, so a blocked head is not delayed by
// speculative large grants while the system is under pressure.
func (a *AdmissionController) backfillAllowed(req *request, resident bool) bool {
	if a.state == StateOpen {
		return true
	}
	if req.kind == KindForward && resident {
		return true
	}
	a.deferred++
	return false
}

// AdmissionStats snapshots controller activity.
type AdmissionStats struct {
	State       AdmissionState
	P99         time.Duration // last evaluated pressure signal
	Transitions int64
	Shed        int64
	Deferred    int64
}
