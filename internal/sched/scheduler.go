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
//
// Every identity the scheduler knows — a client, a batch ID, a
// reservation — has one record: the request that holds it, and whether
// it has ever been granted memory. A submission looks each identity up
// once; from then on its request carries the records, so granting and
// releasing it mark residency and clear the holding through pointers,
// not by hashing the IDs again. A record that holds nothing and is not
// resident is dropped; Forget drops a departed client's. A batch ID no
// other identity names is listed beside the table instead of entering
// it, so a fresh batch costs the table no insert and no delete. Records
// and requests are reused once released.
package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

// Spans returns the spans a request of kind records: its grant wait and
// the server compute the grant is for. Both planes name their phases
// here, so a wait span always matches its request.
func (k RequestKind) Spans() (wait, compute obs.SpanKind) {
	if k == KindForward {
		return obs.SpanWaitForward, obs.SpanForward
	}
	return obs.SpanWaitBackward, obs.SpanBackward
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
	// rec is the one member's record of a Submit or Reserve request;
	// batch holds a SubmitBatch request's records instead. Both are set
	// when the request is enqueued and cleared when it is released.
	rec      *ident
	batch    *batchRecs
	granted  bool // bytes are allocated (grantAt or Reserve)
	reserved bool // a Reserve holding: counts against Schedulable
	parked   bool // the grant is revocable: listed in Scheduler.parked
	// self backs members for a one-member request, so the plain
	// Submit→grant→Complete cycle costs no allocation beyond the request.
	self [1]BatchMember
}

// ident is one identity's record in Scheduler.held.
type ident struct {
	id string
	// req is the request or allocation holding this identity — as its
	// own ID or as a member — from Submit, SubmitBatch or Reserve until
	// Complete: the one-outstanding rule.
	req *request
	// mark is the submission that last looked the identity up, so a
	// batch naming it twice is caught by comparing one number.
	mark uint64
	// ticks counts the submissions admission control saw from this
	// identity while Throttled; their parity sheds every second one. It
	// goes with the record, so a dropped record takes its parity along.
	ticks int64
	// resident marks an identity granted memory as a request's member at
	// least once; admission control protects resident clients over
	// newcomers.
	resident bool
	// listed marks a batch ID's record kept in Scheduler.aliases, not in
	// held.
	listed bool
}

// batchRecs is a SubmitBatch request's records: every identity it
// occupies under the one-outstanding rule, once each.
type batchRecs struct {
	members []*ident // in member order
	alias   *ident   // the batch ID's, when no member carries it
}

// memberRec returns the record of r's i-th member.
func (r *request) memberRec(i int) *ident {
	if r.batch != nil {
		return r.batch.members[i]
	}
	return r.rec
}

// own returns the record of r's own ID: a plain request's, a batch ID's,
// or the member's that carries the batch ID.
func (r *request) own() *ident {
	switch {
	case r.batch == nil:
		return r.rec
	case r.batch.alias != nil:
		return r.batch.alias
	}
	for _, rec := range r.batch.members {
		if rec.id == r.clientID {
			return rec
		}
	}
	return nil
}

// alias returns the record of r's own ID when no member carries it (a
// batch ID), or nil.
func (r *request) alias() *ident {
	if r.batch != nil {
		return r.batch.alias
	}
	return nil
}

// hold makes h the holder of every one of r's records: r itself when it
// is enqueued or reserved, nil when it is released. Caller holds s.mu
// and, to hold, has checked outstanding for each record.
func (r *request) hold(h *request) {
	for i := range r.members {
		r.memberRec(i).req = h
	}
	if a := r.alias(); a != nil {
		a.req = h
	}
}

// revocable is a revocable grant and its owner's hook, run under s.mu
// when the scheduler takes the bytes back for someone else. The hook
// lives here, not in request: every Submit of every plane allocates a
// request, only a parked one needs a hook.
type revocable struct {
	r      *request
	revoke func()
}

// recChunk and reqChunk are how many records and requests one
// allocation makes when the free lists run dry.
const (
	recChunk = 16
	reqChunk = 8
)

// requestLocked takes a released request for a new one-member request
// of Submit or Reserve; SubmitBatch then points members at its own.
// Caller holds s.mu.
func (s *Scheduler) requestLocked(clientID string, kind RequestKind, bytes int64, grant func()) *request {
	if len(s.freeReqs) == 0 {
		chunk := make([]request, reqChunk)
		for i := range chunk {
			s.freeReqs = append(s.freeReqs, &chunk[i])
		}
	}
	n := len(s.freeReqs) - 1
	r := s.freeReqs[n]
	s.freeReqs[n], s.freeReqs = nil, s.freeReqs[:n]
	*r = request{clientID: clientID, kind: kind, bytes: bytes, grant: grant}
	r.self[0] = BatchMember{ClientID: clientID, Bytes: bytes}
	r.members = r.self[:]
	return r
}

// freeRequestLocked takes back a request nothing refers to any more: a
// refused one, or one released whose caller is done reading it. Caller
// holds s.mu.
func (s *Scheduler) freeRequestLocked(r *request) {
	*r = request{}
	s.freeReqs = append(s.freeReqs, r)
}

// schedMetrics holds the scheduler's telemetry handles. The counters and
// gauges always exist, standalone until Instrument, because Stats reads
// its counts from them; the histograms, only observed on an instrument
// clock, and the registry are nil until then.
type schedMetrics struct {
	reg        *obs.Registry
	submitted  *obs.Counter
	granted    *obs.Counter
	backfilled *obs.Counter
	completed  *obs.Counter
	rejected   *obs.Counter
	depthMax   *obs.Gauge
	wait       *obs.Histogram
	holBlocked *obs.Histogram
	grown      *obs.Counter
	claimed    *obs.Counter
	revoked    *obs.Counter
	parked     *obs.Gauge
}

// standaloneSchedMetrics makes the handles of a scheduler not yet
// instrumented, in two allocations.
func standaloneSchedMetrics() schedMetrics {
	c, g := new([8]obs.Counter), new([2]obs.Gauge)
	return schedMetrics{
		submitted: &c[0], granted: &c[1], backfilled: &c[2], completed: &c[3],
		rejected: &c[4], grown: &c[5], claimed: &c[6], revoked: &c[7],
		depthMax: &g[0], parked: &g[1],
	}
}

// newSchedMetrics registers the scheduler's handles in reg.
func newSchedMetrics(reg *obs.Registry) schedMetrics {
	return schedMetrics{
		reg:        reg,
		submitted:  reg.Counter(obs.MetricSchedSubmitted, "scheduling requests submitted"),
		granted:    reg.Counter(obs.MetricSchedGranted, "scheduling requests granted"),
		backfilled: reg.Counter(obs.MetricSchedBackfilled, "grants made out of FCFS order"),
		completed:  reg.Counter(obs.MetricSchedCompleted, "allocations reclaimed"),
		rejected:   reg.Counter(obs.MetricSchedRejected, "submissions rejected (never-fits, duplicate, closed)"),
		depthMax:   reg.Gauge(obs.MetricSchedQueueDepthMax, "high-water mark of the wait queue"),
		wait:       reg.Histogram(obs.MetricSchedWaitSeconds, obs.DurationBuckets(), "submit-to-grant wait time"),
		holBlocked: reg.Histogram(obs.MetricSchedHOLBlockedSeconds, obs.DurationBuckets(), "contiguous intervals the queue head was too large to grant"),
		grown:      reg.Counter(obs.MetricSchedGrown, "forward grants grown to the backward demand (activations kept)"),
		claimed:    reg.Counter(obs.MetricSchedClaimed, "parked grants claimed back by their owner (backward without re-forward)"),
		revoked:    reg.Counter(obs.MetricSchedRevocations, "parked grants revoked because another request needed the memory"),
		parked:     reg.Gauge(obs.MetricSchedParkedBytes, "bytes held by parked (revocable) grants"),
	}
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
	MaxQueueDepth int
	// Identities is the size of the scheduler's identity table: every
	// identity with something outstanding, and every resident client
	// not yet forgotten. A level, not a count: splitsim's fleet-wide
	// Stats leave it zero.
	Identities int `json:",omitempty"`
}

// Scheduler tracks available GPU memory and pending operation
// requests.
type Scheduler struct {
	mu      sync.Mutex
	policy  Policy
	avail   int64
	total   int64 // fixed at New
	waiting []*request
	// held maps every identity the scheduler tracks to its one record:
	// the request holding it (a request's own ID and each member's, from
	// Submit, SubmitBatch or Reserve until Complete: the one-outstanding
	// rule for all three) and whether it is resident. Each submission
	// hashes each of its identities once; a record holding nothing that
	// is not resident is dropped at release, and Forget drops a resident
	// one. Dropped records, released requests and released batches'
	// record lists are reused.
	held map[string]*ident
	// aliases lists the records of live batch IDs that no other identity
	// names, which held does not carry: one for each queued or granted
	// batch at most, searched before held.
	aliases   []*ident
	freeRecs  []*ident
	freeReqs  []*request
	freeBatch []*batchRecs
	marks     uint64 // submissions looked up: the last ident.mark issued
	closed    bool
	decisions int64 // scheduling cycles run; the one count with no family

	m schedMetrics
	// clock is the telemetry clock Instrument wired (nil until then). It
	// gates the wait and head-of-line histograms, the observations that
	// need a time.
	clock obs.Clock
	// holSince marks when the queue head last became blocked (the
	// head-of-line interval the backfill policy exists to fill).
	holSince  time.Duration
	holActive bool

	// adm, when non-nil, closes the telemetry→scheduling feedback
	// loop (docs/ADMISSION.md). With adm == nil every code path below
	// is bit-identical to the plain Algorithm-2 scheduler.
	adm *AdmissionController
	// reserved sums the bytes held by Reserve (long-lived holdings):
	// the floor below total that queued requests can never use. It is
	// written under mu and read without it by Schedulable, which the
	// simulator's batch former asks on every join.
	reserved atomic.Int64
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
		policy: policy,
		avail:  totalMem,
		total:  totalMem,
		held:   make(map[string]*ident),
		m:      standaloneSchedMetrics(),
	}
}

// Instrument moves the scheduler's handles into a telemetry registry
// and wires the clock its waits are timed on. It must be called before
// the scheduler is shared between goroutines (typically right after
// New): counts made earlier stay behind. Schedulers instrumented into
// one registry share its counters, so each one's Stats counts them all.
// The clock decides whether wait and head-of-line times are wall time
// (obs.NewWallClock) or virtual time (obs.ClockFunc(kernel.Now)); both
// registry and clock are required.
func (s *Scheduler) Instrument(reg *obs.Registry, clock obs.Clock) {
	if reg == nil || clock == nil {
		return
	}
	s.m, s.clock = newSchedMetrics(reg), clock
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
	if s.clock != nil {
		clock = s.clock
	}
	s.adm = newAdmissionController(slo, clock)
	s.adm.instrument(s.m.reg)
	return nil
}

// SetLedger attaches a per-tenant accounting ledger. Setup-time only,
// before the scheduler is shared between goroutines. The scheduler is
// the single source of GPU byte-second accrual: every grant and
// reservation opens a holding, every Complete closes it, so persistent
// ("persist:"-tagged reservations) and transient (plain client grants)
// residency are attributed without double counting.
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
	case s.clock != nil:
		return s.clock.Now(), true
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

// Expect sizes the identity table for n identities, so a scheduler
// whose roster is known up front does not grow it record by record.
// Setup-time only, before the first submission or reservation.
func (s *Scheduler) Expect(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.held) == 0 {
		s.held = make(map[string]*ident, n)
	}
}

// Submit registers a request for bytes of GPU memory on behalf of
// clientID; grant is invoked (possibly synchronously, under no lock)
// when the request is scheduled. A client may have at most one
// outstanding request or live allocation, its own or as a member of a
// batch.
func (s *Scheduler) Submit(clientID string, kind RequestKind, bytes int64, grant func()) error {
	return s.submit(clientID, kind, bytes, nil, grant)
}

// submit is the one submission path behind Submit and SubmitBatch:
// build the request — members nil for a plain one — look up its
// identities, admit it to the queue and run a scheduling cycle.
func (s *Scheduler) submit(id string, kind RequestKind, bytes int64, members []BatchMember, grant func()) error {
	s.mu.Lock()
	req := s.requestLocked(id, kind, bytes, grant)
	if members != nil {
		req.members = members
		// A member named twice is refused before anything else, and is
		// not counted as a rejected submission.
		if err := s.resolveBatchLocked(req); err != nil {
			s.freeRequestLocked(req)
			s.mu.Unlock()
			return err
		}
	} else {
		req.rec = s.identLocked(id)
	}
	if err := s.enqueueLocked(req); err != nil {
		s.unresolveLocked(req)
		s.freeRequestLocked(req)
		s.mu.Unlock()
		s.m.rejected.Inc()
		return err
	}
	var buf grantBuf
	grants := s.schedule(buf[:0])
	s.mu.Unlock()
	for _, g := range grants {
		g()
	}
	return nil
}

// lookupLocked returns id's record, or nil if id has none. Caller holds
// s.mu.
func (s *Scheduler) lookupLocked(id string) *ident {
	for _, rec := range s.aliases {
		if rec.id == id {
			return rec
		}
	}
	return s.held[id]
}

// identLocked returns id's record, creating it in held if id has none.
// Caller holds s.mu.
func (s *Scheduler) identLocked(id string) *ident {
	rec := s.lookupLocked(id)
	if rec == nil {
		rec = s.newIdentLocked(id)
		s.held[id] = rec
	}
	return rec
}

// aliasLocked returns batch ID id's record, creating it in aliases if
// id has none. Caller holds s.mu.
func (s *Scheduler) aliasLocked(id string) *ident {
	rec := s.lookupLocked(id)
	if rec == nil {
		rec = s.newIdentLocked(id)
		rec.listed = true
		s.aliases = append(s.aliases, rec)
	}
	return rec
}

// newIdentLocked takes a record off the free list for id. Caller holds
// s.mu.
func (s *Scheduler) newIdentLocked(id string) *ident {
	if len(s.freeRecs) == 0 {
		chunk := make([]ident, recChunk)
		for i := range chunk {
			s.freeRecs = append(s.freeRecs, &chunk[i])
		}
	}
	n := len(s.freeRecs) - 1
	rec := s.freeRecs[n]
	s.freeRecs[n], s.freeRecs = nil, s.freeRecs[:n]
	rec.id = id
	return rec
}

// dropIdleLocked drops rec if it holds nothing and is not resident.
// Caller holds s.mu.
func (s *Scheduler) dropIdleLocked(rec *ident) {
	if rec.req != nil || rec.resident {
		return
	}
	if rec.listed {
		i := slices.Index(s.aliases, rec)
		s.aliases = slices.Delete(s.aliases, i, i+1)
	} else {
		delete(s.held, rec.id)
	}
	*rec = ident{}
	s.freeRecs = append(s.freeRecs, rec)
}

// resolveBatchLocked looks up every identity of SubmitBatch request req
// once, into a record list of its own, and refuses a member named twice.
// Caller holds s.mu.
func (s *Scheduler) resolveBatchLocked(req *request) error {
	var b *batchRecs
	if n := len(s.freeBatch); n > 0 {
		b, s.freeBatch = s.freeBatch[n-1], s.freeBatch[:n-1]
	} else {
		b = &batchRecs{members: make([]*ident, 0, len(req.members))}
	}
	req.batch = b
	s.marks++
	for _, m := range req.members {
		rec := s.identLocked(m.ClientID)
		if rec.mark == s.marks {
			s.unresolveLocked(req)
			return fmt.Errorf("%w: %q appears twice in batch %q", ErrOutstanding, m.ClientID, req.clientID)
		}
		rec.mark = s.marks
		b.members = append(b.members, rec)
	}
	if rec := s.aliasLocked(req.clientID); rec.mark != s.marks {
		b.alias = rec
	}
	return nil
}

// unresolveLocked undoes req's lookups when it is refused or released:
// it drops every record left idle and returns req's record list to the
// free list. Caller holds s.mu.
func (s *Scheduler) unresolveLocked(req *request) {
	if b := req.batch; b != nil {
		for i, rec := range b.members {
			s.dropIdleLocked(rec)
			b.members[i] = nil
		}
		if b.alias != nil {
			s.dropIdleLocked(b.alias)
		}
		b.members, b.alias = b.members[:0], nil
		s.freeBatch = append(s.freeBatch, b)
		req.batch = nil
	} else if req.rec != nil {
		s.dropIdleLocked(req.rec)
		req.rec = nil
	}
}

// enqueueLocked appends req to the wait queue unless the scheduler is
// closed, req can never fit, one of its identities already has a
// request or allocation outstanding, or admission control sheds it. Its
// records are resolved; caller holds s.mu.
func (s *Scheduler) enqueueLocked(req *request) error {
	if s.closed {
		return ErrClosed
	}
	// Fail fast on requests that could never be granted: larger than
	// the total budget, or larger than what Reserve's long-lived
	// holdings (persistent client state) leave schedulable.
	// Without this check such a request would sit at the queue head
	// forever, head-of-line-blocking every client behind it.
	if reserved := s.reserved.Load(); req.bytes > s.total-reserved {
		return fmt.Errorf("%w: need %d, schedulable %d (total %d, %d reserved) (request %q, %d members)",
			ErrNeverFits, req.bytes, s.total-reserved, s.total, reserved, req.clientID, len(req.members))
	}
	for i := range req.members {
		if err := outstanding(req.memberRec(i)); err != nil {
			return err
		}
	}
	if a := req.alias(); a != nil {
		if err := outstanding(a); err != nil {
			return err
		}
	}
	if s.adm != nil {
		now, _ := s.clockNow()
		s.adm.evaluate(now, s.headAgeLocked(now))
		if err := s.adm.admit(&req.own().ticks); err != nil {
			for _, m := range req.members {
				s.ledger.Shed(m.ClientID)
			}
			return err
		}
	}
	if now, ok := s.clockNow(); ok {
		req.at = now
	}
	s.m.submitted.Inc()
	req.hold(req)
	s.waiting = append(s.waiting, req)
	s.m.depthMax.SetMax(int64(len(s.waiting)))
	return nil
}

// outstanding reports ErrOutstanding when rec's identity holds an
// allocation or reservation, is queued, or rides a queued or granted
// batch. Caller holds s.mu.
func outstanding(rec *ident) error {
	if r := rec.req; r != nil {
		return fmt.Errorf("%w: %q (request %q, granted: %v)", ErrOutstanding, rec.id, r.clientID, r.granted)
	}
	return nil
}

// allocLocked returns the granted request or reservation that id names
// (not one it merely rides as a member), or nil. Caller holds s.mu.
func (s *Scheduler) allocLocked(id string) *request {
	if rec := s.lookupLocked(id); rec != nil {
		if r := rec.req; r != nil && r.granted && r.clientID == id {
			return r
		}
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
		s.freeRequestLocked(r)
		s.m.completed.Inc()
	}
	var buf grantBuf
	grants := s.schedule(buf[:0])
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
		s.reserved.Add(-r.bytes)
	}
	for _, m := range r.members {
		s.ledger.Release(m.ClientID, m.Bytes)
	}
	r.hold(nil)
	s.unresolveLocked(r)
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
	if r == nil || r.reserved || r.parked || len(r.members) != 1 || r.alias() != nil {
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
	s.m.grown.Inc()
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
	s.m.parked.Set(s.parkedBytes)
	var buf grantBuf
	grants := buf[:0]
	switch {
	case s.closed:
		s.revokeLocked(r)
	case len(s.waiting) > 0:
		grants = s.schedule(grants)
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
	s.m.claimed.Inc()
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
	s.m.parked.Set(s.parkedBytes)
	return revoke
}

// revokeLocked takes parked grant r back from its owner: bytes to free
// memory, ledger holding released, identity cleared, owner told. Caller
// holds s.mu.
func (s *Scheduler) revokeLocked(r *request) {
	revoke := s.unparkLocked(r)
	s.releaseLocked(r)
	s.m.revoked.Inc()
	s.ledger.Revoke(r.clientID)
	s.freeRequestLocked(r)
	revoke()
}

// grantBuf backs the grant list of one scheduling cycle on its caller's
// stack: a cycle rarely grants more.
type grantBuf [4]func()

// schedule is Algorithm 2's SCHEDULE procedure: it appends the grant
// callbacks of the requests it grants to grants. Caller holds s.mu; the
// callbacks must be invoked after unlocking.
func (s *Scheduler) schedule(grants []func()) []func() {
	s.decisions++
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
	for i := range r.members {
		if !r.memberRec(i).resident {
			return false
		}
	}
	return true
}

// observeHeadOfLine tracks contiguous intervals during which the queue
// head does not fit in free memory — the blocked time backfilling
// works around. Caller holds s.mu.
func (s *Scheduler) observeHeadOfLine() {
	if s.clock == nil {
		return
	}
	blocked := len(s.waiting) > 0 && !s.fitLocked(s.waiting[0].bytes)
	now := s.clock.Now()
	switch {
	case blocked && !s.holActive:
		s.holActive = true
		s.holSince = now
	case !blocked && s.holActive:
		s.holActive = false
		s.m.holBlocked.Observe((now - s.holSince).Seconds())
	}
}

// grantAt removes the request at index i, allocates its memory, and
// returns its grant callback. Caller holds s.mu.
func (s *Scheduler) grantAt(i int, backfilled bool) func() {
	r := s.waiting[i]
	s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
	s.takeLocked(r.bytes)
	r.granted = true
	s.m.granted.Inc()
	if backfilled {
		s.m.backfilled.Inc()
	}
	// Each member is billed its own byte share; Complete releases the
	// same shares.
	for i, m := range r.members {
		r.memberRec(i).resident = true
		s.ledger.Acquire(m.ClientID, m.Bytes)
	}
	if now, ok := s.clockNow(); ok {
		wait := now - r.at
		if s.clock != nil {
			// One wait observation per member, so the unlabeled
			// histogram matches the per-member observations the ledger
			// records below.
			for range r.members {
				s.m.wait.Observe(wait.Seconds())
			}
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
// now, it fails. Release the reservation with Complete(id). A
// reservation does not make id resident: no request names it.
func (s *Scheduler) Reserve(id string, bytes int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.m.rejected.Inc()
		return ErrClosed
	}
	rec := s.identLocked(id)
	if err := outstanding(rec); err != nil {
		s.m.rejected.Inc()
		return err
	}
	if !s.fitLocked(bytes) {
		s.dropIdleLocked(rec)
		s.m.rejected.Inc()
		return fmt.Errorf("%w: reserve %d, available %d", ErrNeverFits, bytes, s.avail+s.parkedBytes)
	}
	s.takeLocked(bytes)
	r := s.requestLocked(id, 0, bytes, nil)
	r.granted, r.reserved, r.rec = true, true, rec
	r.hold(r)
	s.reserved.Add(bytes)
	s.ledger.Acquire(id, bytes)
	return nil
}

// Forget drops id's record once it holds nothing, so a departed client
// neither counts as resident nor stays in the identity table: it returns
// as a newcomer to admission control. A request still holding id keeps
// the record until it is released.
func (s *Scheduler) Forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.lookupLocked(id); rec != nil {
		rec.resident = false
		s.dropIdleLocked(rec)
	}
}

// Schedulable returns the memory a queued request can ever hope to be
// granted: the total budget minus long-lived reservations. Submissions
// above it fail fast with ErrNeverFits.
func (s *Scheduler) Schedulable() int64 {
	return s.total - s.reserved.Load()
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
		Shed:        s.adm.mShed.Value(),
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

// Load is one consistent reading of the scheduler's memory and queue.
type Load struct {
	Total       int64 // the full budget (Total)
	Schedulable int64 // the budget minus reservations (Schedulable)
	Available   int64 // free plus parked bytes (Available)
	QueueDepth  int
	Admission   AdmissionState // StateOpen when admission control is disabled
}

// Load reads what Total, Schedulable, Available, QueueDepth and
// AdmissionState report under one lock.
func (s *Scheduler) Load() Load {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := Load{
		Total:       s.total,
		Schedulable: s.total - s.reserved.Load(),
		Available:   s.avail + s.parkedBytes,
		QueueDepth:  len(s.waiting),
	}
	if s.adm != nil {
		l.Admission = s.adm.state
	}
	return l
}

// Stats returns a snapshot of scheduler statistics, the counts read
// from the counters /metrics shows.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Submitted:     s.m.submitted.Value(),
		Granted:       s.m.granted.Value(),
		Backfilled:    s.m.backfilled.Value(),
		Completed:     s.m.completed.Value(),
		Grown:         s.m.grown.Value(),
		Claimed:       s.m.claimed.Value(),
		Revoked:       s.m.revoked.Value(),
		Decisions:     s.decisions,
		MaxQueueDepth: int(s.m.depthMax.Value()),
		Identities:    len(s.held) + len(s.aliases),
	}
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
