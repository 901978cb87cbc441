package splitsim

import (
	"fmt"
	"time"

	"menos/internal/batch"
	"menos/internal/costmodel"
	"menos/internal/sched"
	"menos/internal/sim"
)

// simBatcher runs batched kernel invocations in virtual time. Who
// shares a batch and when a group closes is decided by the same
// batch.Former that drives internal/batch.Engine (one per serverSim,
// under the same batch.Key and policy, publishing the same menos_batch_*
// metrics); this file is only the virtual clockwork around it —
// kernel.After for the hold timer, a leader handler per sealed group —
// because Engine's wall-clock timers and goroutines cannot run under
// the deterministic kernel. A batch allocates nothing: each group keeps
// its leader through the former's recycling, and batch IDs are cut from
// an arena.
//
// Batched mode also changes the compute model: where the serial
// simulation time-shares GPU compute freely (each client sleeps its own
// duration, overlapped), a batched kernel invocation owns the device —
// one invocation runs at a time per server, serialized through a
// sim.Resource, and costs costmodel.BatchedTime(maxMemberDur, K). That
// is what makes the batch-size-vs-latency knee measurable: a size-1
// policy serializes K clients' kernels end to end, while a size-K
// policy amortizes the shared frozen base across one invocation.
type simBatcher struct {
	kernel  *sim.Kernel
	run     *menosRun // shed bookkeeping and the memory timeline
	pol     sched.BatchPolicy
	metrics *batch.Metrics

	seq int   // batch IDs and shed-retry jitter count across the fleet
	ids arena // every batch ID issued
}

// simMember is one client's share of a forming group. The joining
// client fills the request half and waits on sig; the leader fills the
// outcome half and fires sig.
type simMember struct {
	id      string
	bytes   int64
	rows    int64
	dur     time.Duration // this member's serial kernel duration
	release time.Duration // release/re-collect overhead (backward only)
	sig     *sim.Signal
	then    func() // the member's continuation once its batch ran

	joined time.Duration
	err    error
	// Outcome accounting, all on the virtual clock: the grant wait
	// (including the fixed decision cost, like a serial grant), the
	// billed compute share (Σ shares == batch duration), and the
	// residency stall (time inside the batch beyond the member's own
	// share — waiting for co-members' rows and for the device).
	wait    time.Duration
	compute time.Duration
	stall   time.Duration
}

func newSimBatcher(kernel *sim.Kernel, run *menosRun, pol sched.BatchPolicy, metrics *batch.Metrics) *simBatcher {
	return &simBatcher{
		kernel:  kernel,
		run:     run,
		pol:     pol.WithDefaults(),
		metrics: metrics,
	}
}

// join adds m to srv's forming group for key; m.then runs once the
// group's batch has executed, with m.err set if it never could be
// scheduled and m's wait/compute/stall holding its share otherwise.
func (b *simBatcher) join(srv *serverSim, key batch.Key, m *simMember) {
	m.joined, m.err = b.kernel.Now(), nil
	// One batch becomes one scheduler grant, so the byte budget is what
	// the scheduler could ever grant.
	g, opened, sealed := srv.former.Add(key, m, m.bytes, srv.scheduler.Schedulable())
	if opened {
		b.seq++
		if g.State == nil {
			g.State = b.newLeader(srv)
		}
		g.State.open(g)
		// The hold timer is its own event; leading a group is another,
		// so the timer never runs a batch inline.
		b.kernel.After(b.pol.MaxHold, g.State.expire)
	}
	if sealed != nil {
		b.startLeader(sealed)
	}
	m.sig.WaitFor("batch member", m.id, m.then)
}

// startLeader starts sealed group g's leader at the current time.
func (b *simBatcher) startLeader(g *batch.Group[*simMember, *simLead]) {
	b.kernel.After(0, g.State.advance)
}

// simLead drives one sealed group: submit the batched grant, serialize
// on the device, run the batched kernel, release, bill each member its
// row share, and wake everyone. A leader stays with its group through
// the server's former, binding its continuations once; the pair is
// recycled when both the batch and the hold timer are done.
type simLead struct {
	b       *simBatcher
	group   *batch.Group[*simMember, *simLead]
	srv     *serverSim
	id      string
	opened  time.Duration
	pc      leadPC
	holding bool // the group's hold timer has yet to fire

	members []sched.BatchMember
	rows    []batch.MemberRows
	maxDur  time.Duration
	maxRel  time.Duration
	total   time.Duration // Σ member serial durations
	hold    time.Duration
	grantAt time.Duration

	gw              grantWait
	advance, expire func()
}

// leadPC is a position in simLead.lead.
type leadPC int

const (
	leadStart leadPC = iota
	leadGranted
	leadRun
	leadRan
	leadDone
	leadIdle // the batch ran and its members were woken
)

// newLeader makes a leader for srv's groups.
func (b *simBatcher) newLeader(srv *serverSim) *simLead {
	l := &simLead{
		b:       b,
		srv:     srv,
		members: make([]sched.BatchMember, 0, b.pol.MaxSize),
		rows:    make([]batch.MemberRows, 0, b.pol.MaxSize),
	}
	l.advance, l.expire = l.lead, l.holdExpired
	l.gw.init(b.kernel, "batch grant", "", 0, b.kernel.NewSignal(), l, l.advance)
	return l
}

// open takes group g, opened now, under the fleet's next batch ID.
func (l *simLead) open(g *batch.Group[*simMember, *simLead]) {
	b := l.b
	l.id = b.ids.number("batch-", b.seq)
	l.group, l.opened, l.pc, l.holding = g, b.kernel.Now(), leadStart, true
	l.gw.subject, l.gw.jitter = l.id, b.seq%8
}

// holdExpired is the group's hold timer: a group still forming seals
// and runs as it is.
func (l *simLead) holdExpired() {
	l.holding = false
	switch {
	case l.srv.former.Seal(l.group):
		l.b.startLeader(l.group)
	case l.pc == leadIdle:
		l.srv.former.Recycle(l.group)
	}
}

// finish ends the leader's batch; the group goes back to the former now,
// or when its hold timer fires if it has yet to.
func (l *simLead) finish() {
	l.pc = leadIdle
	if !l.holding {
		l.srv.former.Recycle(l.group)
	}
}

func (l *simLead) lead() {
	b, srv, k := l.b, l.srv, l.b.kernel
	for {
		switch l.pc {
		case leadStart:
			l.hold = k.Now() - l.opened
			l.members, l.maxDur, l.maxRel, l.total = l.members[:0], 0, 0, 0
			for _, m := range l.group.Members {
				l.members = append(l.members, sched.BatchMember{ClientID: m.id, Bytes: m.bytes})
				if m.dur > l.maxDur {
					l.maxDur = m.dur
				}
				if m.release > l.maxRel {
					l.maxRel = m.release
				}
				l.total += m.dur
			}
			// Members stay parked through sheds, so their recorded wait
			// spans all attempts. Errors other than overload can never
			// be granted — fail the members rather than deadlocking the
			// kernel.
			l.pc = leadGranted
			l.gw.await()
			return

		case leadGranted:
			if err := l.gw.err; err != nil {
				for _, m := range l.group.Members {
					m.err = fmt.Errorf("batch %s: %w", l.id, err)
					m.sig.Fire()
				}
				l.finish()
				return
			}
			l.grantAt = k.Now()
			b.run.sampleMem(l.grantAt, srv)
			// One batched kernel invocation owns the device; the grant
			// is held across it exactly like a serial client's.
			l.pc = leadRun
			srv.gpu.Acquire(l.advance)
			return

		case leadRun:
			l.pc = leadRan
			k.After(costmodel.BatchedTime(l.maxDur, len(l.members)), l.advance)
			return

		case leadRan:
			srv.gpu.Release()
			srv.scheduler.Complete(l.id)
			b.run.sampleMem(k.Now(), srv)
			l.pc = leadDone
			// One release/re-collection cycle per batch — the batched
			// path's core saving over per-client release (Table 2's
			// per-client cost).
			if l.maxRel > 0 {
				k.After(l.maxRel, l.advance)
				return
			}

		case leadDone:
			l.bill(k.Now())
			for _, m := range l.group.Members {
				m.sig.Fire()
			}
			l.finish()
			return
		}
	}
}

// bill gives each member its share of the device time, proportional to
// its serial duration so heterogeneous members split the batch the way
// the row-partitioned kernel actually spends it. Integer remainders go
// to the last member, keeping Σ shares exact.
func (l *simLead) bill(doneAt time.Duration) {
	members := l.group.Members
	total := doneAt - l.grantAt
	var billed time.Duration
	l.rows = l.rows[:0]
	for i, m := range members {
		share := total
		if l.total > 0 {
			share = time.Duration(float64(total) * (float64(m.dur) / float64(l.total)))
		}
		if i == len(members)-1 {
			share = total - billed
		}
		billed += share
		m.wait = l.grantAt - m.joined + costmodel.SchedulerDecisionTime
		m.compute = share
		m.stall = doneAt - l.grantAt - share
		l.rows = append(l.rows, batch.MemberRows{Client: m.id, Rows: m.rows})
	}
	l.b.metrics.Record(l.rows, l.hold.Seconds())
}

// submit is the leader's grantWait submission: one SubmitBatch, after
// which the server's share of the memory timeline is re-read.
func (l *simLead) submit(grant func()) error {
	err := l.srv.scheduler.SubmitBatch(l.id, l.group.Key.Kind, l.members, grant)
	l.b.run.refresh(l.srv)
	return err
}

// shed books an admission shed against every member of the group.
func (l *simLead) shed() { l.b.run.shed(l.members...) }
