package splitsim

import (
	"fmt"
	"strconv"
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
// the deterministic kernel.
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

	seq  int        // batch IDs and shed-retry jitter count across the fleet
	free []*simLead // leaders between groups
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
	reason  string        // the member's wait in a deadlock report
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
		g.State = b.leader(g, srv)
		// The hold timer is its own event; leading a group is another,
		// so the timer never runs a batch inline.
		b.kernel.After(b.pol.MaxHold, func() {
			if srv.former.Seal(g) {
				b.startLeader(g)
			}
		})
	}
	if sealed != nil {
		b.startLeader(sealed)
	}
	m.sig.Wait(m.reason, m.then)
}

// startLeader starts sealed group g's leader at the current time.
func (b *simBatcher) startLeader(g *batch.Group[*simMember, *simLead]) {
	b.kernel.After(0, g.State.advance)
}

// simLead drives one sealed group: submit the batched grant, serialize
// on the device, run the batched kernel, release, bill each member its
// row share, and wake everyone. Leaders are pooled, each binding its
// continuations once.
type simLead struct {
	b      *simBatcher
	group  *batch.Group[*simMember, *simLead]
	srv    *serverSim
	id     string
	opened time.Duration
	pc     leadPC

	members []sched.BatchMember
	rows    []batch.MemberRows
	maxDur  time.Duration
	maxRel  time.Duration
	total   time.Duration // Σ member serial durations
	hold    time.Duration
	grantAt time.Duration

	gw      grantWait
	advance func()
}

// leadPC is a position in simLead.lead.
type leadPC int

const (
	leadStart leadPC = iota
	leadGranted
	leadRun
	leadRan
	leadDone
)

// leader takes a pooled leader for group g, opened now on srv.
func (b *simBatcher) leader(g *batch.Group[*simMember, *simLead], srv *serverSim) *simLead {
	var l *simLead
	if n := len(b.free); n > 0 {
		l, b.free = b.free[n-1], b.free[:n-1]
	} else {
		l = &simLead{b: b}
		l.advance = l.lead
		l.gw.init(b.kernel, "", 0, l.submit, l.shed, l.advance)
	}
	buf := make([]byte, 0, 32)
	buf = append(buf, "batch grant batch-"...)
	reason := string(strconv.AppendInt(buf, int64(b.seq), 10))
	l.group, l.srv, l.opened, l.pc = g, srv, b.kernel.Now(), leadStart
	l.id = reason[len("batch grant "):]
	l.gw.reason, l.gw.jitter = reason, b.seq%8
	return l
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
				b.free = append(b.free, l)
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
			b.free = append(b.free, l)
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
func (l *simLead) shed() {
	ids := make([]string, len(l.members))
	for i, m := range l.members {
		ids[i] = m.ClientID
	}
	l.b.run.shed(ids...)
}
