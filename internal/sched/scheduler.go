// Package sched implements the Menos task scheduler of §4 (Algorithm
// 2): an event-driven, operation-level GPU-memory scheduler combining
// FCFS with backfilling, adapted from Mu'alem & Feitelson's IBM SP2
// scheduler as the paper describes.
//
// The scheduler is time-source agnostic: it reacts to Submit (data
// arrived from a client) and Complete (a computation released its
// memory) events and grants execution through a callback, so the same
// code drives both the discrete-event simulation and the real TCP
// runtime.
package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"menos/internal/obs"
)

// Errors reported by the scheduler. ErrOverloaded (admission.go) joins
// them when an SLO is configured.
var (
	ErrNeverFits   = errors.New("sched: request exceeds schedulable GPU memory")
	ErrOutstanding = errors.New("sched: client already has an outstanding request or allocation")
	ErrClosed      = errors.New("sched: scheduler closed")
)

// RequestKind distinguishes the two operation classes of §4.2.
type RequestKind int

// Request kinds.
const (
	KindForward  RequestKind = iota + 1 // no-grad forward: small footprint
	KindBackward                        // re-forward + backward: large footprint
)

// String returns the kind name.
func (k RequestKind) String() string {
	switch k {
	case KindForward:
		return "forward"
	case KindBackward:
		return "backward"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Policy selects the scheduling discipline. The paper's design is
// FCFS+backfilling; the others exist as ablations.
type Policy int

// Scheduling policies.
const (
	// PolicyFCFSBackfill is Algorithm 2: strict FCFS for the queue
	// head, backfilling later requests into leftover memory.
	PolicyFCFSBackfill Policy = iota + 1
	// PolicyFCFS grants strictly in order; the head blocks everyone.
	PolicyFCFS
	// PolicySmallestFirst always grants the smallest fitting request;
	// maximizes utilization but can starve large backward requests.
	PolicySmallestFirst
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyFCFSBackfill:
		return "fcfs+backfill"
	case PolicyFCFS:
		return "fcfs"
	case PolicySmallestFirst:
		return "smallest-first"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// request is a scheduling request. It carries the member shares that
// sum to bytes and are billed individually at grant time: SubmitBatch's
// members under the batch ID, or — a serial request is a batch of one —
// the submitting client's own share under its own ID.
type request struct {
	clientID string
	kind     RequestKind
	bytes    int64
	grant    func()
	at       time.Duration // submit time on the telemetry clock
	members  []BatchMember
	// alias holds the request's own ID when no member carries it (a
	// batch ID): with the members' IDs, every identity the request
	// occupies under the one-outstanding rule, once each.
	alias    []string
	granted  bool // bytes are allocated (grantAt or Reserve)
	reserved bool // a Reserve holding: counts against Schedulable
	parked   bool // the grant is revocable: listed in Scheduler.parked
	// self backs members for a one-member request, so the plain
	// Submit→grant→Complete cycle costs no allocation beyond the request.
	self [1]BatchMember
}

// revocable is a revocable grant and its owner's hook, run under s.mu
// when the scheduler takes the bytes back for someone else. The hook
// lives here, not in request: every Submit of every plane allocates a
// request, only a parked one needs a hook.
type revocable struct {
	r      *request
	revoke func()
}

// newRequest builds the one-member request of Submit and Reserve.
func newRequest(clientID string, kind RequestKind, bytes int64, grant func()) *request {
	r := &request{clientID: clientID, kind: kind, bytes: bytes, grant: grant}
	r.self[0] = BatchMember{ClientID: clientID, Bytes: bytes}
	r.members = r.self[:]
	return r
}

// schedMetrics holds the scheduler's resolved telemetry handles. All
// fields are nil-safe obs handles, so update sites are unconditional;
// the struct pointer itself gates the clock reads.
type schedMetrics struct {
	reg        *obs.Registry
	clock      obs.Clock
	submitted  *obs.Counter
	granted    *obs.Counter
	backfilled *obs.Counter
	completed  *obs.Counter
	rejected   *obs.Counter
	queueDepth *obs.Gauge
	depthMax   *obs.Gauge
	wait       *obs.Histogram
	holBlocked *obs.Histogram
	grown      *obs.Counter
	claimed    *obs.Counter
	revoked    *obs.Counter
	parked     *obs.Gauge
}

// Stats aggregates scheduler activity.
type Stats struct {
	Submitted     int64
	Granted       int64
	Backfilled    int64 // granted out of FCFS order
	Completed     int64
	Grown         int64 // forward grants enlarged to hold the activation cache
	Claimed       int64 // parked grants their owner took back (cache hits)
	Revoked       int64 // parked grants taken back for another request
	Decisions     int64
	DecisionTime  time.Duration // cumulative wall time inside schedule()
	MaxQueueDepth int
}

// Scheduler tracks available GPU memory and pending operation
// requests.
type Scheduler struct {
	mu      sync.Mutex
	policy  Policy
	avail   int64
	total   int64
	waiting []*request
	// held maps every identity with something outstanding — a request's
	// own ID and each member's — to that request, from Submit, SubmitBatch
	// or Reserve until Complete: the one-outstanding rule for all three.
	held   map[string]*request
	closed bool
	stats  Stats

	m *schedMetrics
	// holSince marks when the queue head last became blocked (the
	// head-of-line interval the backfill policy exists to fill).
	holSince  time.Duration
	holActive bool

	// adm, when non-nil, closes the telemetry→scheduling feedback
	// loop (docs/ADMISSION.md). With adm == nil every code path below
	// is bit-identical to the plain Algorithm-2 scheduler.
	adm *AdmissionController
	// resident marks clients that have been granted memory at least
	// once; admission control protects them over newcomers.
	resident map[string]struct{}
	// reserved sums the bytes held by Reserve (long-lived holdings):
	// the floor below total that queued requests can never use.
	reserved int64
	// parked lists the revocable grants oldest first; parkedBytes sums
	// them. They are allocated (not in avail) yet free to every fit test:
	// takeLocked revokes them when a request needs the memory.
	parked      []revocable
	parkedBytes int64

	// ledger, when non-nil, receives per-tenant accounting events:
	// grants and reservations as byte holdings (persistent vs transient
	// via the owner-tag prefix), grant waits, and admission sheds. Pure
	// bookkeeping — it never feeds back into scheduling decisions.
	ledger *obs.Ledger
}

// New creates a scheduler over totalMem bytes of schedulable GPU
// memory.
func New(totalMem int64, policy Policy) *Scheduler {
	return &Scheduler{
		policy:   policy,
		avail:    totalMem,
		total:    totalMem,
		held:     make(map[string]*request),
		resident: make(map[string]struct{}),
	}
}

// Instrument wires the scheduler to a telemetry registry and clock.
// It must be called before the scheduler is shared between goroutines
// (typically right after New). The clock decides whether wait and
// head-of-line times are wall time (obs.NewWallClock) or virtual time
// (obs.ClockFunc(kernel.Now)); both registry and clock are required.
func (s *Scheduler) Instrument(reg *obs.Registry, clock obs.Clock) {
	if reg == nil || clock == nil {
		return
	}
	s.m = &schedMetrics{
		clock:      clock,
		submitted:  reg.Counter(obs.MetricSchedSubmitted, "scheduling requests submitted"),
		granted:    reg.Counter(obs.MetricSchedGranted, "scheduling requests granted"),
		backfilled: reg.Counter(obs.MetricSchedBackfilled, "grants made out of FCFS order"),
		completed:  reg.Counter(obs.MetricSchedCompleted, "allocations reclaimed"),
		rejected:   reg.Counter(obs.MetricSchedRejected, "submissions rejected (never-fits, duplicate, closed)"),
		queueDepth: reg.Gauge(obs.MetricSchedQueueDepth, "requests currently waiting"),
		depthMax:   reg.Gauge(obs.MetricSchedQueueDepthMax, "high-water mark of the wait queue"),
		wait:       reg.Histogram(obs.MetricSchedWaitSeconds, obs.DurationBuckets(), "submit-to-grant wait time"),
		holBlocked: reg.Histogram(obs.MetricSchedHOLBlockedSeconds, obs.DurationBuckets(), "contiguous intervals the queue head was too large to grant"),
		grown:      reg.Counter(obs.MetricSchedGrown, "forward grants grown to the backward demand (activations kept)"),
		claimed:    reg.Counter(obs.MetricSchedClaimed, "parked grants claimed back by their owner (backward without re-forward)"),
		revoked:    reg.Counter(obs.MetricSchedRevocations, "parked grants revoked because another request needed the memory"),
		parked:     reg.Gauge(obs.MetricSchedParkedBytes, "bytes held by parked (revocable) grants"),
	}
	s.m.reg = reg
	if s.adm != nil {
		s.adm.instrument(reg)
	}
}

// EnableAdmission activates SLO-aware admission control (see
// docs/ADMISSION.md). Like Instrument it must be called during setup,
// before the scheduler is shared between goroutines. The clock should
// match the plane the scheduler runs on: obs.NewWallClock() for the
// real server, obs.ClockFunc(kernel.Now) for the simulator. A
// disabled SLO (zero TargetP99) is a no-op; a nil clock is an error.
func (s *Scheduler) EnableAdmission(slo SLO, clock obs.Clock) error {
	if !slo.Enabled() {
		return nil
	}
	if clock == nil {
		return errors.New("sched: admission control needs a clock")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// One time source for everything: if the scheduler is already
	// instrumented, request timestamps come from the instrument clock,
	// so the controller must read the same epoch.
	if s.m != nil {
		clock = s.m.clock
	}
	s.adm = newAdmissionController(slo, clock)
	if s.m != nil {
		s.adm.instrument(s.m.reg)
	}
	return nil
}

// SetLedger attaches a per-tenant accounting ledger. Setup-time only,
// before the scheduler is shared between goroutines. The scheduler is
// the single source of GPU byte-second accrual: every grant and
// reservation opens a holding, every Complete closes it, so persistent
// ("persist:"/"decode:"-tagged reservations) and transient (plain
// client grants) residency are attributed without double counting.
func (s *Scheduler) SetLedger(l *obs.Ledger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ledger = l
}

// SetAdmissionHook registers f to run on every admission state change
// (e.g. to trigger a flight-recorder snapshot). Setup-time only, after
// EnableAdmission; a hook set while admission control is disabled is
// dropped. The hook fires under the scheduler mutex, so it must not
// call back into the scheduler — queue the work instead
// (obs.FlightRecorder.TriggerAsync is safe).
func (s *Scheduler) SetAdmissionHook(f func(from, to AdmissionState)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adm != nil {
		s.adm.hook = f
	}
}

// clockNow returns the telemetry clock reading, preferring the
// instrumented clock, falling back to the admission clock; ok is false
// when neither is wired (then request timestamps stay zero, exactly as
// before instrumentation existed).
func (s *Scheduler) clockNow() (time.Duration, bool) {
	switch {
	case s.m != nil:
		return s.m.clock.Now(), true
	case s.adm != nil:
		return s.adm.clock.Now(), true
	default:
		return 0, false
	}
}

// headAgeLocked returns the age of the oldest waiting request at now.
// Caller holds s.mu.
func (s *Scheduler) headAgeLocked(now time.Duration) time.Duration {
	if len(s.waiting) == 0 {
		return 0
	}
	if age := now - s.waiting[0].at; age > 0 {
		return age
	}
	return 0
}

// Submit registers a request for bytes of GPU memory on behalf of
// clientID; grant is invoked (possibly synchronously, under no lock)
// when the request is scheduled. A client may have at most one
// outstanding request or live allocation, its own or as a member of a
// batch.
func (s *Scheduler) Submit(clientID string, kind RequestKind, bytes int64, grant func()) error {
	return s.submit(newRequest(clientID, kind, bytes, grant))
}

// submit is the one submission path behind Submit and SubmitBatch:
// admit req to the queue and run a scheduling cycle.
func (s *Scheduler) submit(req *request) error {
	s.mu.Lock()
	if err := s.enqueueLocked(req); err != nil {
		s.mu.Unlock()
		s.rejectedInc()
		return err
	}
	grants := s.schedule()
	s.mu.Unlock()
	for _, g := range grants {
		g()
	}
	return nil
}

// enqueueLocked appends req to the wait queue unless the scheduler is
// closed, req can never fit, one of its identities already has a
// request or allocation outstanding, or admission control sheds it.
// Caller holds s.mu.
func (s *Scheduler) enqueueLocked(req *request) error {
	if s.closed {
		return ErrClosed
	}
	// Fail fast on requests that could never be granted: larger than
	// the total budget, or larger than what Reserve's long-lived
	// holdings (persistent client state, KV caches) leave schedulable.
	// Without this check such a request would sit at the queue head
	// forever, head-of-line-blocking every client behind it.
	if req.bytes > s.total-s.reserved {
		return fmt.Errorf("%w: need %d, schedulable %d (total %d, %d reserved) (request %q, %d members)",
			ErrNeverFits, req.bytes, s.total-s.reserved, s.total, s.reserved, req.clientID, len(req.members))
	}
	for _, m := range req.members {
		if err := s.outstandingLocked(m.ClientID); err != nil {
			return err
		}
	}
	for _, id := range req.alias {
		if err := s.outstandingLocked(id); err != nil {
			return err
		}
	}
	if s.adm != nil {
		now, _ := s.clockNow()
		s.adm.evaluate(now, s.headAgeLocked(now))
		if err := s.adm.admit(req.clientID); err != nil {
			for _, m := range req.members {
				s.ledger.Shed(m.ClientID)
			}
			return err
		}
	}
	if now, ok := s.clockNow(); ok {
		req.at = now
	}
	if s.m != nil {
		s.m.submitted.Inc()
	}
	s.holdLocked(req)
	s.waiting = append(s.waiting, req)
	s.stats.Submitted++
	if len(s.waiting) > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = len(s.waiting)
	}
	s.observeQueueDepth()
	return nil
}

// outstandingLocked reports ErrOutstanding when id holds an allocation
// or reservation, is queued, or rides a queued or granted batch. Caller
// holds s.mu.
func (s *Scheduler) outstandingLocked(id string) error {
	if r := s.held[id]; r != nil {
		return fmt.Errorf("%w: %q (request %q, granted: %v)", ErrOutstanding, id, r.clientID, r.granted)
	}
	return nil
}

// holdLocked registers r under each of its identities. Caller holds
// s.mu and has checked outstandingLocked for each.
func (s *Scheduler) holdLocked(r *request) {
	for _, m := range r.members {
		s.held[m.ClientID] = r
	}
	for _, id := range r.alias {
		s.held[id] = r
	}
}

// allocLocked returns the granted request or reservation that id names
// (not one it merely rides as a member), or nil. Caller holds s.mu.
func (s *Scheduler) allocLocked(id string) *request {
	if r := s.held[id]; r != nil && r.granted && r.clientID == id {
		return r
	}
	return nil
}

// Complete reclaims the memory allocated to clientID (Algorithm 2,
// lines 10-13) and runs a scheduling cycle. It returns the reclaimed
// byte count (0 if the client held nothing).
func (s *Scheduler) Complete(clientID string) int64 {
	s.mu.Lock()
	var reclaimed int64
	if r := s.allocLocked(clientID); r != nil {
		reclaimed = r.bytes
		if r.parked {
			// The owner gives a parked grant back itself (a forward no
			// backward followed, a teardown): its hook does not fire.
			s.unparkLocked(r)
		}
		s.releaseLocked(r)
		s.stats.Completed++
		if s.m != nil {
			s.m.completed.Inc()
		}
	}
	grants := s.schedule()
	s.mu.Unlock()
	for _, g := range grants {
		g()
	}
	return reclaimed
}

// releaseLocked returns r's bytes to free memory and clears every
// identity it held. Caller holds s.mu.
func (s *Scheduler) releaseLocked(r *request) {
	s.avail += r.bytes
	if r.reserved {
		s.reserved -= r.bytes
	}
	for _, m := range r.members {
		delete(s.held, m.ClientID)
		s.ledger.Release(m.ClientID, m.Bytes)
	}
	for _, id := range r.alias {
		delete(s.held, id)
	}
}

// fitLocked is the fit test of every grant decision: bytes fit when free
// memory plus what the parked grants would give back covers them. Caller
// holds s.mu.
func (s *Scheduler) fitLocked(bytes int64) bool {
	return bytes <= s.avail+s.parkedBytes
}

// takeLocked allocates bytes that fitLocked admitted, revoking parked
// grants — oldest first, and no more than needed — for what free memory
// alone does not cover. Caller holds s.mu.
func (s *Scheduler) takeLocked(bytes int64) {
	for s.avail < bytes {
		s.revokeLocked(s.parked[0].r)
	}
	s.avail -= bytes
}

// Grow enlarges clientID's live plain grant to bytes so the forward it
// covers may keep its activations for the backward (M_f → M_b). It never
// queues and never takes from anyone: it is refused while any request
// waits or when strictly free memory — parked bytes do not count — does
// not cover the difference.
func (s *Scheduler) Grow(clientID string, bytes int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.allocLocked(clientID)
	if r == nil || r.reserved || r.parked || len(r.members) != 1 || len(r.alias) != 0 {
		return false
	}
	delta := max(bytes-r.bytes, 0)
	if s.closed || len(s.waiting) > 0 || delta > s.avail {
		return false
	}
	s.avail -= delta
	r.bytes += delta
	r.members[0].Bytes += delta
	s.ledger.Acquire(clientID, delta)
	s.stats.Grown++
	if s.m != nil {
		s.m.grown.Inc()
	}
	return true
}

// Park turns clientID's live grant into a revocable one instead of
// completing it: the owner keeps what the bytes hold (a forward's
// activation cache), every fit test counts them as free, and the first
// request that would not otherwise fit takes them back — revoke then
// runs under the scheduler mutex, so it must only drop the owner's
// reference (an atomic store) and never call back in. Exactly one of
// three things ends a parked grant: Claim returning true, Complete, or
// revoke firing. Parking is a release: requests that queued while the
// grant was live get a scheduling cycle.
func (s *Scheduler) Park(clientID string, revoke func()) {
	s.mu.Lock()
	r := s.allocLocked(clientID)
	if r == nil || r.reserved || r.parked {
		s.mu.Unlock()
		revoke() // nothing to park: the owner must not keep what no grant covers
		return
	}
	r.parked = true
	s.parked = append(s.parked, revocable{r, revoke})
	s.parkedBytes += r.bytes
	s.observeParked()
	var grants []func()
	switch {
	case s.closed:
		s.revokeLocked(r)
	case len(s.waiting) > 0:
		grants = s.schedule()
	}
	s.mu.Unlock()
	for _, g := range grants {
		g()
	}
}

// Claim takes clientID's parked grant back for the backward it was kept
// for. True means the grant is live again — revoke will never fire for
// it, and the owner releases it with Complete as usual; false means it
// was revoked (or never parked) and the owner holds nothing. Claim and
// revocation exclude each other under the scheduler mutex.
func (s *Scheduler) Claim(clientID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.allocLocked(clientID)
	if r == nil || !r.parked {
		return false
	}
	s.unparkLocked(r)
	s.stats.Claimed++
	if s.m != nil {
		s.m.claimed.Inc()
	}
	return true
}

// unparkLocked takes parked grant r off the list and returns its hook.
// Caller holds s.mu.
func (s *Scheduler) unparkLocked(r *request) (revoke func()) {
	for i, p := range s.parked {
		if p.r == r {
			revoke = p.revoke
			s.parked = slices.Delete(s.parked, i, i+1) // zeroes the vacated slot: no stale hook kept alive
			break
		}
	}
	s.parkedBytes -= r.bytes
	r.parked = false
	s.observeParked()
	return revoke
}

// revokeLocked takes parked grant r back from its owner: bytes to free
// memory, ledger holding released, identity cleared, owner told. Caller
// holds s.mu.
func (s *Scheduler) revokeLocked(r *request) {
	revoke := s.unparkLocked(r)
	s.releaseLocked(r)
	s.stats.Revoked++
	if s.m != nil {
		s.m.revoked.Inc()
	}
	s.ledger.Revoke(r.clientID)
	revoke()
}

// observeParked publishes the parked-bytes gauge. Caller holds s.mu.
func (s *Scheduler) observeParked() {
	if s.m != nil {
		s.m.parked.Set(s.parkedBytes)
	}
}

// schedule is Algorithm 2's SCHEDULE procedure. Caller holds s.mu; the
// returned grant callbacks must be invoked after unlocking.
func (s *Scheduler) schedule() []func() {
	start := time.Now()
	defer func() {
		s.stats.Decisions++
		s.stats.DecisionTime += time.Since(start)
	}()

	var grants []func()
	switch s.policy {
	case PolicySmallestFirst:
		// Ablation: repeatedly grant the smallest fitting request.
		for {
			best := -1
			for i, r := range s.waiting {
				if s.fitLocked(r.bytes) && (best < 0 || r.bytes < s.waiting[best].bytes) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			grants = append(grants, s.grantAt(best, best != 0))
		}
	case PolicyFCFS:
		// Strict order: stop at the first request that does not fit.
		for len(s.waiting) > 0 && s.fitLocked(s.waiting[0].bytes) {
			grants = append(grants, s.grantAt(0, false))
		}
	default: // PolicyFCFSBackfill
		// Lines 15-22: grant the head if it fits; if the head does not
		// fit, keep it (fairness) and fall through to backfilling.
		for len(s.waiting) > 0 && s.fitLocked(s.waiting[0].bytes) {
			grants = append(grants, s.grantAt(0, false))
		}
		// Lines 23-24: backfill later requests into leftover memory.
		// Under admission pressure the backfill turns conservative:
		// only small forward-class requests from resident clients may
		// jump the head (admission.go).
		for i := 1; i < len(s.waiting); {
			if r := s.waiting[i]; s.fitLocked(r.bytes) {
				if s.adm != nil && !s.adm.backfillAllowed(r, s.isResident(r)) {
					i++
					continue
				}
				grants = append(grants, s.grantAt(i, true))
				continue // slice shifted; same index is the next item
			}
			i++
		}
	}
	if s.adm != nil {
		now, _ := s.clockNow()
		s.adm.evaluate(now, s.headAgeLocked(now))
	}
	s.observeHeadOfLine()
	return grants
}

// isResident reports whether every member of r has been granted memory
// before. Caller holds s.mu.
func (s *Scheduler) isResident(r *request) bool {
	for _, m := range r.members {
		if _, ok := s.resident[m.ClientID]; !ok {
			return false
		}
	}
	return true
}

// observeHeadOfLine tracks contiguous intervals during which the queue
// head does not fit in free memory — the blocked time backfilling
// works around. Caller holds s.mu.
func (s *Scheduler) observeHeadOfLine() {
	if s.m == nil {
		return
	}
	blocked := len(s.waiting) > 0 && !s.fitLocked(s.waiting[0].bytes)
	now := s.m.clock.Now()
	switch {
	case blocked && !s.holActive:
		s.holActive = true
		s.holSince = now
	case !blocked && s.holActive:
		s.holActive = false
		s.m.holBlocked.Observe((now - s.holSince).Seconds())
	}
}

// rejectedInc counts a rejected submission (atomic; callable with or
// without s.mu).
func (s *Scheduler) rejectedInc() {
	if s.m != nil {
		s.m.rejected.Inc()
	}
}

// observeQueueDepth publishes the current and high-water queue depth.
// Caller holds s.mu.
func (s *Scheduler) observeQueueDepth() {
	if s.m == nil {
		return
	}
	depth := int64(len(s.waiting))
	s.m.queueDepth.Set(depth)
	s.m.depthMax.SetMax(depth)
}

// grantAt removes the request at index i, allocates its memory, and
// returns its grant callback. Caller holds s.mu.
func (s *Scheduler) grantAt(i int, backfilled bool) func() {
	r := s.waiting[i]
	s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
	s.takeLocked(r.bytes)
	r.granted = true
	s.stats.Granted++
	if backfilled {
		s.stats.Backfilled++
	}
	// Each member is billed its own byte share; Complete releases the
	// same shares.
	for _, m := range r.members {
		s.resident[m.ClientID] = struct{}{}
		s.ledger.Acquire(m.ClientID, m.Bytes)
	}
	if now, ok := s.clockNow(); ok {
		wait := now - r.at
		if s.m != nil {
			s.m.granted.Inc()
			if backfilled {
				s.m.backfilled.Inc()
			}
			// One wait observation per member, so the unlabeled
			// histogram matches the per-member observations the ledger
			// records below.
			for range r.members {
				s.m.wait.Observe(wait.Seconds())
			}
			s.observeQueueDepth()
		}
		if s.adm != nil {
			s.adm.observe(now, wait)
		}
		// The ledger's labeled wait family shares the unlabeled
		// histogram's name and sees the exact same value, so the
		// per-client series sum back to the aggregate.
		for _, m := range r.members {
			s.ledger.AddGrantWait(m.ClientID, wait.Seconds())
		}
	}
	return r.grant
}

// Reserve immediately claims bytes for a long-lived holding (e.g. a
// client's persistent adapter/optimizer state) outside the request
// queue. Unlike Submit it never queues: if the memory is not free right
// now, it fails. Release the reservation with Complete(id).
func (s *Scheduler) Reserve(id string, bytes int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.rejectedInc()
		return ErrClosed
	}
	if err := s.outstandingLocked(id); err != nil {
		s.rejectedInc()
		return err
	}
	if !s.fitLocked(bytes) {
		s.rejectedInc()
		return fmt.Errorf("%w: reserve %d, available %d", ErrNeverFits, bytes, s.avail+s.parkedBytes)
	}
	s.takeLocked(bytes)
	r := newRequest(id, 0, bytes, nil)
	r.granted, r.reserved = true, true
	s.holdLocked(r)
	s.reserved += bytes
	s.resident[id] = struct{}{}
	s.ledger.Acquire(id, bytes)
	return nil
}

// Schedulable returns the memory a queued request can ever hope to be
// granted: the total budget minus long-lived reservations. Submissions
// above it fail fast with ErrNeverFits.
func (s *Scheduler) Schedulable() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total - s.reserved
}

// AdmissionState returns the current admission-control state
// (StateOpen when admission control is disabled).
func (s *Scheduler) AdmissionState() AdmissionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adm == nil {
		return StateOpen
	}
	return s.adm.state
}

// AdmissionStats snapshots admission-controller activity (zero when
// admission control is disabled).
func (s *Scheduler) AdmissionStats() AdmissionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adm == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		State:       s.adm.state,
		P99:         s.adm.lastP99,
		Transitions: s.adm.transitions,
		Shed:        s.adm.shed,
		Deferred:    s.adm.deferred,
	}
}

// Total returns the scheduler's full memory budget.
func (s *Scheduler) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Available returns the memory a request could be granted right now:
// free bytes plus parked ones, which are revoked the moment anything
// needs them.
func (s *Scheduler) Available() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.avail + s.parkedBytes
}

// Parked returns the bytes held by parked (revocable) grants: the
// transient occupancy an uncontended server keeps to skip re-forwards.
func (s *Scheduler) Parked() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parkedBytes
}

// QueueDepth returns the number of waiting requests.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiting)
}

// Allocated returns the bytes currently granted to clientID.
func (s *Scheduler) Allocated(clientID string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.allocLocked(clientID); r != nil {
		return r.bytes
	}
	return 0
}

// Stats returns a snapshot of scheduler statistics.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close rejects future submissions and revokes every parked grant.
// Pending requests stay queued (the owner is expected to drain or
// abandon them).
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for len(s.parked) > 0 {
		s.revokeLocked(s.parked[0].r)
	}
}
