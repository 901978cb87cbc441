// Package sched implements the Menos task scheduler of §4 (Algorithm
// 2): an event-driven, operation-level GPU-memory scheduler combining
// FCFS with backfilling, adapted from Mu'alem & Feitelson's IBM SP2
// scheduler as the paper describes.
//
// The scheduler is time-source agnostic: it reacts to Submit (data
// arrived from a client) and Complete (a computation released its
// memory) events and grants execution through a callback, so the same
// code drives both the discrete-event simulation and the real TCP
// runtime. Its registry, its one clock, its ledger and its admission
// control are given once, by Wire.
//
// Every identity the scheduler knows — a client or a batch ID — has one
// record: the request that holds it, whether it has ever been granted
// memory and, for a client, its persistent reservation. A client enrolls
// once (Enroll) and makes every call through the Handle it got, so each
// reaches its record without a lookup; a batch ID is looked up once.
// The request carries the records, so granting and releasing it mark
// residency and clear the holding through pointers. A record that holds
// nothing, is not resident and is not enrolled is dropped; Forget
// releases a departed client's holdings and enrollment. A batch ID no
// other identity names is listed beside the table, so a fresh batch
// costs the table no insert and no delete. Records and requests are
// reused once released.
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
// sum to bytes and are billed individually at grant time: the members
// of a SubmitBatch that admission control let through, under the batch
// ID, or — a serial request is a batch of one — the submitting client's
// own share under its own ID.
type request struct {
	kind    RequestKind
	bytes   int64
	grant   func()
	at      time.Duration // submit time on the telemetry clock
	members []share
	// own is the record of the request's own ID: a plain request's one
	// member, or a batch ID's — which is a member's when a member
	// carries it. Set when the request is resolved, cleared when it is
	// released.
	own     *ident
	alias   bool // own is not among members: a batch ID, held beside them
	batch   bool // members is a SubmitBatch list from Scheduler.freeShares
	granted bool // bytes are allocated (grantAt)
	parked  bool // the grant is revocable: listed in Scheduler.parked
	// self backs members for a one-member request, so the plain
	// Submit→grant→Complete cycle costs no allocation beyond the request.
	self [1]share
}

// share is one member of a request: its identity's record and the bytes
// billed to it.
type share struct {
	rec   *ident
	bytes int64
}

// ident is one identity's record in Scheduler.held.
type ident struct {
	id string
	// req is the request or allocation holding this identity — as its
	// own ID or as a member — from Submit or SubmitBatch until Complete:
	// the one-outstanding rule.
	req      *request
	reserved int64 // the client's reservation (Handle.Reserve), held until Forget
	// mark is the submission that last looked the identity up, so a
	// batch naming it twice is caught by comparing one number.
	mark uint64
	// ticks counts the submissions admission control saw from this
	// identity while Throttled, on its own or as a batch member; their
	// parity sheds every second one. It goes with the record, so a
	// dropped record takes its parity along.
	ticks int64
	// gen is the enrollment that the identity's Handle carries (Enroll),
	// or 0 when it is not enrolled. An enrolled record is never dropped,
	// and a handle whose generation is not its record's is refused, so a
	// handle never reaches a record reused for another identity.
	gen uint64
	// resident marks an identity granted memory as a request's member at
	// least once; admission control protects resident clients over
	// newcomers.
	resident bool
	// listed marks a batch ID's record kept in Scheduler.aliases, not in
	// held.
	listed bool
}

// Handle is a client's enrollment in one Scheduler (Enroll): every
// per-client call is a method on it, and a batch names its members by
// it. A forgotten handle holds nothing; the zero Handle takes only Forget.
type Handle struct {
	s   *Scheduler
	rec *ident
	gen uint64
}

// errNotEnrolled refuses a handle that is not a current enrollment in
// the scheduler: forgotten, from another scheduler, or zero.
var errNotEnrolled = errors.New("sched: handle is not enrolled in this scheduler")

// hold makes h the holder of every one of r's records: r itself when it
// is enqueued, nil when it is released. Caller holds s.mu
// and, to hold, has checked outstanding for each record.
func (r *request) hold(h *request) {
	for _, m := range r.members {
		m.rec.req = h
	}
	if r.alias {
		r.own.req = h
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

// requestLocked takes a released request for a new request of kind.
// Caller holds s.mu, then resolves its records: one for Submit,
// resolveBatchLocked for SubmitBatch.
func (s *Scheduler) requestLocked(kind RequestKind, grant func()) *request {
	if len(s.freeReqs) == 0 {
		chunk := make([]request, reqChunk)
		for i := range chunk {
			s.freeReqs = append(s.freeReqs, &chunk[i])
		}
	}
	n := len(s.freeReqs) - 1
	r := s.freeReqs[n]
	s.freeReqs[n], s.freeReqs = nil, s.freeReqs[:n]
	r.kind, r.grant = kind, grant
	return r
}

// one makes r the one-member request of record rec for bytes, its
// member share its own.
func (r *request) one(rec *ident, bytes int64) {
	r.own, r.bytes = rec, bytes
	r.self[0] = share{rec, bytes}
	r.members = r.self[:]
}

// freeRequestLocked takes back a request nothing refers to any more: a
// refused one, or one released whose caller is done reading it. Caller
// holds s.mu.
func (s *Scheduler) freeRequestLocked(r *request) {
	*r = request{}
	s.freeReqs = append(s.freeReqs, r)
}

// schedMetrics holds the scheduler's telemetry handles. The counters and
// gauges always exist, standalone unless Wire gave a registry, because
// Stats and AdmissionStats read their counts from them; the histograms
// exist only in a registry.
type schedMetrics struct {
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
	shed       *obs.Counter // admission sheds
}

// standaloneSchedMetrics makes the handles of a scheduler without a
// registry, in two allocations.
func standaloneSchedMetrics() schedMetrics {
	c, g := new([9]obs.Counter), new([2]obs.Gauge)
	return schedMetrics{
		submitted: &c[0], granted: &c[1], backfilled: &c[2], completed: &c[3],
		rejected: &c[4], grown: &c[5], claimed: &c[6], revoked: &c[7], shed: &c[8],
		depthMax: &g[0], parked: &g[1],
	}
}

// newSchedMetrics registers the scheduler's handles in reg, the
// admission families only when slo is enabled. With a ledger wired, its
// labeled families document the names they share with the scheduler's
// (the grant wait and the revocations), whichever registers first.
func newSchedMetrics(reg *obs.Registry, slo SLO, ledger bool) schedMetrics {
	waitHelp, revokedHelp := "submit-to-grant wait time", "parked grants revoked because another request needed the memory"
	if ledger {
		waitHelp, revokedHelp = "", ""
	}
	m := schedMetrics{
		submitted:  reg.Counter(obs.MetricSchedSubmitted, "scheduling requests submitted"),
		granted:    reg.Counter(obs.MetricSchedGranted, "scheduling requests granted"),
		backfilled: reg.Counter(obs.MetricSchedBackfilled, "grants made out of FCFS order"),
		completed:  reg.Counter(obs.MetricSchedCompleted, "allocations reclaimed"),
		rejected:   reg.Counter(obs.MetricSchedRejected, "submissions rejected (never-fits, duplicate, closed)"),
		depthMax:   reg.Gauge(obs.MetricSchedQueueDepthMax, "high-water mark of the wait queue"),
		wait:       reg.Histogram(obs.MetricSchedWaitSeconds, obs.DurationBuckets(), waitHelp),
		holBlocked: reg.Histogram(obs.MetricSchedHOLBlockedSeconds, obs.DurationBuckets(), "contiguous intervals the queue head was too large to grant"),
		grown:      reg.Counter(obs.MetricSchedGrown, "forward grants grown to the backward demand (activations kept)"),
		claimed:    reg.Counter(obs.MetricSchedClaimed, "parked grants claimed back by their owner (backward without re-forward)"),
		revoked:    reg.Counter(obs.MetricSchedRevocations, revokedHelp),
		parked:     reg.Gauge(obs.MetricSchedParkedBytes, "bytes held by parked (revocable) grants"),
	}
	if slo.Enabled() {
		m.shed = reg.Counter(obs.MetricSchedAdmissionShed, "submissions shed (each client's every 2nd while throttled, all while shedding)")
		// Advertise the configured target so scrapers (an operator's
		// burn-rate rule, docs/OBSERVABILITY.md) compare each server's p99
		// against the server's own SLO rather than a fleet-wide default.
		reg.Gauge(obs.MetricSchedAdmissionSLOTarget, "configured grant-wait p99 target, microseconds").
			Set(slo.TargetP99.Microseconds())
	}
	return m
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
	// identity with something outstanding, and every enrolled or
	// resident client not yet forgotten, one per live session. A level,
	// not a count: splitsim's fleet-wide Stats leave it zero.
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
	// Submit or SubmitBatch until Complete: the one-outstanding rule for
	// both), whether it is resident and whether it is enrolled. A plain
	// Submit by ID hashes it once, a batch only its batch ID; a record
	// holding nothing that is neither resident nor enrolled is dropped at
	// release, and Forget drops an enrolled one.
	// Dropped records, released requests and released batches' member
	// lists are reused.
	held map[string]*ident
	// aliases lists the records of live batch IDs that no other identity
	// names, which held does not carry: one for each queued or granted
	// batch at most, searched before held.
	aliases    []*ident
	freeRecs   []*ident
	freeReqs   []*request
	freeShares [][]share // released batches' member lists
	marks      uint64    // submissions looked up: the last ident.mark issued
	gens       uint64    // enrollments: the last ident.gen issued
	closed     bool
	decisions  int64 // scheduling cycles run; the one count with no family

	m schedMetrics
	// clock is the scheduler's one timebase (Wire): request timestamps,
	// grant waits, head-of-line intervals and admission control all read
	// it. Nil without a registry and an SLO: then no time is read and
	// request timestamps stay zero.
	clock obs.Clock
	// holSince marks when the queue head last became blocked (the
	// head-of-line interval the backfill policy exists to fill).
	holSince  time.Duration
	holActive bool

	// adm, when non-nil, closes the telemetry→scheduling feedback
	// loop (docs/ADMISSION.md). With adm == nil every code path below
	// is bit-identical to the plain Algorithm-2 scheduler.
	adm *AdmissionController
	// reserved sums the clients' reservations (Handle.Reserve): the
	// floor below total that queued requests can never use. It is
	// written under mu and read without it by Schedulable, which the
	// simulator's batch former asks on every join.
	reserved atomic.Int64
	// parked lists the revocable grants oldest first; parkedBytes sums
	// them. They are allocated (not in avail) yet free to every fit test:
	// takeLocked revokes them when a request needs the memory.
	parked      []revocable
	parkedBytes int64

	// ledger, when non-nil (Wire), receives per-tenant accounting events:
	// grants as transient and reservations as persistent byte holdings,
	// grant waits, and admission sheds. Pure bookkeeping — it never feeds
	// back into scheduling decisions.
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

// Wiring is a scheduler's telemetry, accounting and admission control.
// The zero value wires nothing.
type Wiring struct {
	// Metrics registers the scheduler's families; schedulers wired into
	// one registry share its counters. Nil keeps standalone counters.
	Metrics *obs.Registry
	// Clock times every wait, head-of-line interval and admission
	// evaluation: obs.NewWallClock() on the server, obs.ClockFunc(kernel.Now)
	// in the simulator. Required with a registry or an SLO, read only then.
	Clock obs.Clock
	// Ledger receives every grant and reservation as a byte holding, and
	// the grant waits and sheds, per client.
	Ledger *obs.Ledger
	// SLO, when enabled, activates admission control (docs/ADMISSION.md).
	SLO SLO
	// AdmissionHook runs on every admission state change under the
	// scheduler mutex, so it must not call back into the scheduler —
	// queue the work instead (obs.FlightRecorder.TriggerAsync is safe).
	AdmissionHook func(from, to AdmissionState)
}

// Wire gives the scheduler its telemetry, ledger and admission control.
// Call it once, right after New and before the scheduler is shared
// between goroutines. A registry or an SLO without a clock is an error.
// With neither, no clock is read and the counters stay standalone.
func (s *Scheduler) Wire(w Wiring) error {
	if (w.Metrics != nil || w.SLO.Enabled()) && w.Clock == nil {
		return errors.New("sched: a registry or an SLO needs a clock")
	}
	s.ledger = w.Ledger
	if w.Metrics == nil && !w.SLO.Enabled() {
		return nil
	}
	s.clock = w.Clock
	if w.Metrics != nil {
		s.m = newSchedMetrics(w.Metrics, w.SLO, w.Ledger != nil)
	}
	if w.SLO.Enabled() {
		s.adm = newAdmissionController(w.SLO, s.clock.Now())
		s.adm.hook = w.AdmissionHook
	}
	return nil
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

// Submit registers a request for bytes of GPU memory on behalf of the
// client; grant is invoked (possibly synchronously, under no lock) when
// the request is scheduled. A client may have at most one outstanding
// request or live allocation, its own or as a member of a batch.
func (h Handle) Submit(kind RequestKind, bytes int64, grant func()) error {
	s := h.s
	s.mu.Lock()
	rec := s.recordLocked(h)
	if rec == nil {
		s.mu.Unlock()
		return errNotEnrolled
	}
	req := s.requestLocked(kind, grant)
	req.one(rec, bytes)
	return s.submitLocked(req, nil)
}

// Submit is Handle.Submit for an identity named by its ID.
func (s *Scheduler) Submit(id string, kind RequestKind, bytes int64, grant func()) error {
	s.mu.Lock()
	req := s.requestLocked(kind, grant)
	req.one(s.identLocked(id), bytes)
	return s.submitLocked(req, nil)
}

// submitLocked is the one submission path behind Submit and
// SubmitBatch: admit resolved request req — whose caller list is
// members, nil for a plain one — to the queue and run a scheduling
// cycle. Caller holds s.mu; submitLocked releases it.
func (s *Scheduler) submitLocked(req *request, members []BatchMember) error {
	if err := s.enqueueLocked(req, members); err != nil {
		s.unresolveLocked(req)
		s.freeRequestLocked(req)
		s.mu.Unlock()
		s.m.rejected.Inc()
		return err
	}
	var buf grantBuf
	s.unlockAndGrant(s.schedule(buf[:0]))
	return nil
}

// unlockAndGrant releases s.mu and runs a cycle's grants.
func (s *Scheduler) unlockAndGrant(grants []func()) {
	s.mu.Unlock()
	for _, g := range grants {
		g()
	}
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

// unlistLocked takes batch ID record rec off the aliases list. Caller
// holds s.mu.
func (s *Scheduler) unlistLocked(rec *ident) {
	i := slices.Index(s.aliases, rec)
	s.aliases = slices.Delete(s.aliases, i, i+1)
	rec.listed = false
}

// dropIdleLocked drops rec if it holds nothing and is neither resident
// nor enrolled. Caller holds s.mu.
func (s *Scheduler) dropIdleLocked(rec *ident) {
	if rec.req != nil || rec.resident || rec.gen != 0 {
		return
	}
	if rec.listed {
		s.unlistLocked(rec)
	} else {
		delete(s.held, rec.id)
	}
	*rec = ident{}
	s.freeRecs = append(s.freeRecs, rec)
}

// recordLocked returns the record h enrolls in s, or nil. Caller holds
// s.mu.
func (s *Scheduler) recordLocked(h Handle) *ident {
	if h.s != s || h.rec.gen != h.gen {
		return nil
	}
	return h.rec
}

// resolveBatchLocked takes every identity of a SubmitBatch request req
// under batchID once — each member's record from its handle, the batch
// ID's by lookup — into a member list of its own, and refuses a member
// not enrolled or named twice. Caller holds s.mu.
func (s *Scheduler) resolveBatchLocked(req *request, batchID string, members []BatchMember) error {
	if n := len(s.freeShares); n > 0 {
		req.members, s.freeShares = s.freeShares[n-1], s.freeShares[:n-1]
	} else {
		req.members = make([]share, 0, len(members))
	}
	req.batch = true
	s.marks++
	for i, m := range members {
		rec := s.recordLocked(m.Client)
		if rec == nil {
			s.unresolveLocked(req)
			return fmt.Errorf("batch %q member %d: %w", batchID, i, errNotEnrolled)
		}
		if rec.mark == s.marks {
			s.unresolveLocked(req)
			return fmt.Errorf("%w: %q appears twice in batch %q", ErrOutstanding, rec.id, batchID)
		}
		rec.mark = s.marks
		req.members = append(req.members, share{rec, m.Bytes})
		req.bytes += m.Bytes
	}
	req.own = s.aliasLocked(batchID)
	req.alias = req.own.mark != s.marks
	return nil
}

// unresolveLocked undoes req's resolution when it is refused or
// released: it drops every record left idle and returns a batch's member
// list to the free list. Caller holds s.mu.
func (s *Scheduler) unresolveLocked(req *request) {
	for i, m := range req.members {
		s.dropIdleLocked(m.rec)
		req.members[i] = share{}
	}
	if req.alias {
		s.dropIdleLocked(req.own)
	}
	if req.batch {
		s.freeShares = append(s.freeShares, req.members[:0])
	}
	req.members, req.own, req.alias, req.batch = nil, nil, false, false
}

// enqueueLocked appends req to the wait queue unless the scheduler is
// closed, req can never fit, one of its identities already has a
// request or allocation outstanding, or admission control sheds every
// one of its members. Its records are resolved, members is its caller
// list (nil for a plain request); caller holds s.mu.
func (s *Scheduler) enqueueLocked(req *request, members []BatchMember) error {
	if s.closed {
		return ErrClosed
	}
	// Fail fast on requests that could never be granted: larger than
	// the total budget, or larger than what the clients' reservations
	// (persistent client state) leave schedulable.
	// Without this check such a request would sit at the queue head
	// forever, head-of-line-blocking every client behind it.
	if reserved := s.reserved.Load(); req.bytes > s.total-reserved {
		return fmt.Errorf("%w: need %d, schedulable %d (total %d, %d reserved) (request %q, %d members)",
			ErrNeverFits, req.bytes, s.total-reserved, s.total, reserved, req.own.id, len(req.members))
	}
	for _, m := range req.members {
		if err := outstanding(m.rec); err != nil {
			return err
		}
	}
	if req.alias {
		if err := outstanding(req.own); err != nil {
			return err
		}
	}
	if s.clock != nil {
		req.at = s.clock.Now()
	}
	if s.adm != nil {
		s.adm.evaluate(req.at, s.headAgeLocked(req.at))
		if err := s.admitLocked(req, members); err != nil {
			return err
		}
	}
	s.m.submitted.Inc()
	req.hold(req)
	s.waiting = append(s.waiting, req)
	s.m.depthMax.SetMax(int64(len(s.waiting)))
	return nil
}

// admitLocked asks admission control about each of req's members on its
// own record's parity, exactly as a submission of its own would be
// asked, and takes the members it sheds out of req: each shed is billed
// to that member alone and, for a batch, lands in its caller entry's
// Err. It returns a shed only when no member is left. Caller holds s.mu
// and has evaluated the controller for this instant.
func (s *Scheduler) admitLocked(req *request, members []BatchMember) error {
	var shed error
	kept := req.members[:0]
	for i, m := range req.members {
		err := s.adm.admit(&m.rec.ticks)
		if err == nil {
			kept = append(kept, m)
			continue
		}
		shed = err
		s.m.shed.Inc()
		s.ledger.Shed(m.rec.id)
		req.bytes -= m.bytes
		if members != nil {
			members[i].Err = err
		}
		// The request's own ID stays held even when the member that
		// carries it is shed.
		req.alias = req.alias || m.rec == req.own
	}
	clear(req.members[len(kept):])
	req.members = kept
	if len(kept) == 0 {
		return shed
	}
	return nil
}

// outstanding reports ErrOutstanding when rec's identity holds an
// allocation, is queued, or rides a queued or granted batch. Caller
// holds s.mu.
func outstanding(rec *ident) error {
	if r := rec.req; r != nil {
		return fmt.Errorf("%w: %q (request %q, granted: %v)", ErrOutstanding, rec.id, r.own.id, r.granted)
	}
	return nil
}

// alloc returns the granted request that rec names as its own ID (not
// one it merely rides as a member), or nil; rec may be nil.
func alloc(rec *ident) *request {
	if rec != nil {
		if r := rec.req; r != nil && r.granted && r.own == rec {
			return r
		}
	}
	return nil
}

// Complete reclaims the memory allocated to the client (Algorithm 2,
// lines 10-13) and runs a scheduling cycle. It returns the reclaimed
// byte count (0 if the client held nothing).
func (h Handle) Complete() int64 {
	h.s.mu.Lock()
	return h.s.complete(h.s.recordLocked(h))
}

// Complete is Handle.Complete for a batch ID or a plain Submit's ID.
func (s *Scheduler) Complete(id string) int64 {
	s.mu.Lock()
	return s.complete(s.lookupLocked(id))
}

// complete is completeLocked, then s.mu released and the grants run.
func (s *Scheduler) complete(rec *ident) int64 {
	var buf grantBuf
	n, grants := s.completeLocked(rec, buf[:0])
	s.unlockAndGrant(grants)
	return n
}

// completeLocked releases the allocation rec names, if any (a parked
// one without firing its hook), counts the completion, and appends a
// scheduling cycle's grants. Caller holds s.mu.
func (s *Scheduler) completeLocked(rec *ident, grants []func()) (n int64, _ []func()) {
	if r := alloc(rec); r != nil {
		n = r.bytes
		if r.parked {
			s.unparkLocked(r)
		}
		s.releaseLocked(r)
		s.freeRequestLocked(r)
		s.m.completed.Inc()
	}
	return n, s.schedule(grants)
}

// Withdraw takes the client's queued request out of the wait queue
// ungranted, so its grant never fires, and runs a scheduling cycle for
// the requests it held up. False means nothing was queued: the request
// was granted already, and its owner holds the grant as usual.
func (h Handle) Withdraw() bool {
	h.s.mu.Lock()
	return h.s.withdraw(h.s.recordLocked(h))
}

// Withdraw is Handle.Withdraw for a batch ID or a plain Submit's ID.
func (s *Scheduler) Withdraw(id string) bool {
	s.mu.Lock()
	return s.withdraw(s.lookupLocked(id))
}

// withdraw withdraws the queued request rec names and releases s.mu.
func (s *Scheduler) withdraw(rec *ident) bool {
	if rec == nil || rec.req == nil || rec.req.granted || rec.req.own != rec {
		s.mu.Unlock()
		return false
	}
	r := rec.req
	s.waiting = slices.DeleteFunc(s.waiting, func(w *request) bool { return w == r })
	r.hold(nil)
	s.unresolveLocked(r)
	s.freeRequestLocked(r)
	var buf grantBuf
	s.unlockAndGrant(s.schedule(buf[:0]))
	return true
}

// releaseLocked returns r's bytes to free memory and clears every
// identity it held. Caller holds s.mu.
func (s *Scheduler) releaseLocked(r *request) {
	s.avail += r.bytes
	for _, m := range r.members {
		s.ledger.Hold(m.rec.id, false, -m.bytes)
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

// Grow enlarges the client's live plain grant to bytes so the forward
// it covers may keep its activations for the backward (M_f → M_b). It
// never queues and never takes from anyone: it is refused while any
// request waits or when strictly free memory — parked bytes do not
// count — does not cover the difference.
func (h Handle) Grow(bytes int64) bool {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	r := alloc(s.recordLocked(h))
	if r == nil || r.parked || len(r.members) != 1 || r.alias {
		return false
	}
	delta := max(bytes-r.bytes, 0)
	if s.closed || len(s.waiting) > 0 || delta > s.avail {
		return false
	}
	s.avail -= delta
	r.bytes += delta
	r.members[0].bytes += delta
	s.ledger.Hold(h.rec.id, false, delta)
	s.m.grown.Inc()
	return true
}

// Park turns the client's live grant into a revocable one instead of
// completing it: the owner keeps what the bytes hold (a forward's
// activation cache), every fit test counts them as free, and the first
// request that would not otherwise fit takes them back — revoke then
// runs under the scheduler mutex, so it must only drop the owner's
// reference (an atomic store) and never call back in. Exactly one of
// three things ends a parked grant: Claim returning true, Complete or
// Forget, or revoke firing. Parking is a release: requests that queued
// while the grant was live get a scheduling cycle.
func (h Handle) Park(revoke func()) {
	s := h.s
	s.mu.Lock()
	r := alloc(s.recordLocked(h))
	if r == nil || r.parked {
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
	s.unlockAndGrant(grants)
}

// Claim takes the client's parked grant back for the backward it was
// kept for. True means the grant is live again — revoke will never fire
// for it, and the owner releases it with Complete as usual; false means
// it was revoked (or never parked) and the owner holds nothing. Claim
// and revocation exclude each other under the scheduler mutex.
func (h Handle) Claim() bool {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	r := alloc(s.recordLocked(h))
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
	id := r.own.id
	s.releaseLocked(r)
	s.m.revoked.Inc()
	s.ledger.Revoke(id)
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
		now := s.clock.Now()
		s.adm.evaluate(now, s.headAgeLocked(now))
	}
	s.observeHeadOfLine()
	return grants
}

// isResident reports whether every member of r has been granted memory
// before. Caller holds s.mu.
func (s *Scheduler) isResident(r *request) bool {
	for _, m := range r.members {
		if !m.rec.resident {
			return false
		}
	}
	return true
}

// observeHeadOfLine tracks contiguous intervals during which the queue
// head does not fit in free memory — the blocked time backfilling
// works around. Caller holds s.mu.
func (s *Scheduler) observeHeadOfLine() {
	if s.m.holBlocked == nil {
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
	for _, m := range r.members {
		m.rec.resident = true
		s.ledger.Hold(m.rec.id, false, m.bytes)
	}
	if s.clock != nil {
		now := s.clock.Now()
		wait := now - r.at
		if s.m.wait != nil {
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
			s.ledger.AddGrantWait(m.rec.id, wait.Seconds())
		}
	}
	return r.grant
}

// Reserve claims bytes for the client's persistent state outside the
// request queue, at once or not at all, billed as persistent until
// Forget releases them; it does not make the client resident.
func (h Handle) Reserve(bytes int64) error {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.recordLocked(h)
	switch {
	case rec == nil:
		return errNotEnrolled
	case s.closed:
		s.m.rejected.Inc()
		return ErrClosed
	case rec.reserved > 0:
		s.m.rejected.Inc()
		return fmt.Errorf("%w: %q already holds a reservation", ErrOutstanding, rec.id)
	case !s.fitLocked(bytes):
		s.m.rejected.Inc()
		return fmt.Errorf("%w: reserve %d, available %d", ErrNeverFits, bytes, s.avail+s.parkedBytes)
	}
	s.takeLocked(bytes)
	rec.reserved = bytes
	s.reserved.Add(bytes)
	s.ledger.Hold(rec.id, true, bytes)
	return nil
}

// Enroll gives client id the handle on its record, which keeps its
// throttle parity until Forget; its first grant, not enrolling, makes it
// resident. An ID already enrolled is refused (ErrOutstanding, counted
// as a rejection).
func (s *Scheduler) Enroll(id string) (Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.identLocked(id)
	if rec.gen != 0 {
		s.m.rejected.Inc()
		return Handle{}, fmt.Errorf("%w: %q is enrolled", ErrOutstanding, id)
	}
	if rec.listed { // a live batch's ID: from now on a client's record
		s.unlistLocked(rec)
		s.held[id] = rec
	}
	s.gens++
	rec.gen = s.gens
	return Handle{s: s, rec: rec, gen: rec.gen}, nil
}

// Forget releases the client's grant, live or parked (its hook does not
// fire), then its reservation, each a completion with a scheduling cycle
// as Complete is, and ends the enrollment: the client returns as a
// newcomer. A request still holding it (queued, or a batch it rides)
// keeps the record until it is released.
func (h Handle) Forget() {
	s := h.s
	if s == nil {
		return
	}
	s.mu.Lock()
	rec := s.recordLocked(h)
	if rec == nil {
		s.mu.Unlock()
		return
	}
	var buf grantBuf
	_, grants := s.completeLocked(rec, buf[:0])
	if b := rec.reserved; b > 0 {
		rec.reserved = 0
		s.avail += b
		s.reserved.Add(-b)
		s.ledger.Hold(rec.id, true, -b)
		s.m.completed.Inc()
	}
	grants = s.schedule(grants)
	rec.gen, rec.resident = 0, false
	s.dropIdleLocked(rec)
	s.unlockAndGrant(grants)
}

// Schedulable returns the memory a queued request can ever hope to be
// granted: the total budget minus the clients' reservations. Submissions
// above it fail fast with ErrNeverFits.
func (s *Scheduler) Schedulable() int64 {
	return s.total - s.reserved.Load()
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
		Shed:        s.m.shed.Value(),
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

// Load reads what Total, Schedulable, Available and QueueDepth report
// under one lock, and admission control's state as if it had ticked
// through the time since its last evaluation: a quiet one steps down.
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
		s.adm.settle(s.clock.Now(), s.headAgeLocked)
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
// Pending requests stay queued: their owners take them back with
// Withdraw, as the server does when it closes.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for len(s.parked) > 0 {
		s.revokeLocked(s.parked[0].r)
	}
}
