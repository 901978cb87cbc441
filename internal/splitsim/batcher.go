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
// kernel.After for the hold timer, a leader process per sealed group —
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
	pol     sched.BatchPolicy
	metrics *batch.Metrics
	// onShed is the serial path's shed bookkeeping (rejected counter,
	// ledger retries, flight snapshot), applied to a whole group.
	onShed func(ids ...string)
	// onMem samples the transient-memory timeline after grants and
	// completes, like the serial grant()/release() closures do.
	onMem func(at time.Duration)

	seq int // batch IDs and shed-retry jitter count across the fleet
}

// simGroup is what the batcher keeps per group of parked client
// processes: what its leader needs.
type simGroup struct {
	srv    *serverSim
	id     string
	jitter int
	opened time.Duration
}

// simMember is one client's share of a forming group. The joining
// process fills the request half and parks; the leader fills the
// outcome half and fires sig.
type simMember struct {
	id      string
	bytes   int64
	rows    int64
	dur     time.Duration // this member's serial kernel duration
	release time.Duration // release/re-collect overhead (backward only)

	joined time.Duration
	sig    *sim.Signal
	done   bool
	err    error
	// Outcome accounting, all on the virtual clock: the grant wait
	// (including the fixed decision cost, like waitGrant), the billed
	// compute share (Σ shares == batch duration), and the residency
	// stall (time inside the batch beyond the member's own share —
	// waiting for co-members' rows and for the device).
	wait    time.Duration
	compute time.Duration
	stall   time.Duration
}

func newSimBatcher(kernel *sim.Kernel, pol sched.BatchPolicy, metrics *batch.Metrics,
	onShed func(...string), onMem func(time.Duration)) *simBatcher {
	return &simBatcher{
		kernel:  kernel,
		pol:     pol.WithDefaults(),
		metrics: metrics,
		onShed:  onShed,
		onMem:   onMem,
	}
}

// run joins m to srv's forming group for key and parks p until the
// group's batch has executed. It returns m.err (nil unless the batch
// could never be scheduled). On return m's wait/compute/stall fields
// hold the member's share of the batch for the caller to bill.
func (b *simBatcher) run(p *sim.Proc, srv *serverSim, key batch.Key, m *simMember) error {
	m.joined = p.Now()
	m.sig = b.kernel.NewSignal()
	// One batch becomes one scheduler grant, so the byte budget is what
	// the scheduler could ever grant.
	g, opened, sealed := srv.former.Add(key, m, m.bytes, srv.scheduler.Schedulable())
	if opened {
		b.seq++
		g.State = simGroup{srv: srv, id: fmt.Sprintf("batch-%d", b.seq), jitter: b.seq % 8, opened: p.Now()}
		// The hold timer runs outside process context; leading a group
		// is a process, so the callback never sleeps.
		b.kernel.After(b.pol.MaxHold, func() {
			if srv.former.Seal(g) {
				b.spawnLeader(g)
			}
		})
	}
	if sealed != nil {
		b.spawnLeader(sealed)
	}
	for !m.done {
		m.sig.Wait(p, "batch "+g.State.id)
	}
	return m.err
}

// spawnLeader starts the process that executes sealed group g. Safe
// from member process context and from After callbacks alike.
func (b *simBatcher) spawnLeader(g *batch.Group[*simMember, simGroup]) {
	b.kernel.Spawn(g.State.id, func(p *sim.Proc) { b.lead(p, g) })
}

// lead drives one sealed group: submit the batched grant, serialize on
// the device, sleep the batched kernel duration, release, bill each
// member its row share, and wake everyone.
func (b *simBatcher) lead(p *sim.Proc, group *batch.Group[*simMember, simGroup]) {
	g, srv := group.State, group.State.srv
	hold := p.Now() - g.opened
	members := make([]sched.BatchMember, len(group.Members))
	var maxDur, maxRel, totalDur time.Duration
	for i, m := range group.Members {
		members[i] = sched.BatchMember{ClientID: m.id, Bytes: m.bytes}
		if m.dur > maxDur {
			maxDur = m.dur
		}
		if m.release > maxRel {
			maxRel = m.release
		}
		totalDur += m.dur
	}

	// Members stay parked through sheds, so their recorded wait spans
	// all attempts. Errors other than overload can never be granted —
	// fail the members rather than deadlocking the kernel.
	onShed := func() {
		ids := make([]string, len(members))
		for i, m := range members {
			ids[i] = m.ClientID
		}
		b.onShed(ids...)
	}
	err := awaitGrant(p, "batch grant "+g.id, g.jitter, onShed,
		func(grant func()) error {
			return srv.scheduler.SubmitBatch(g.id, group.Key.Kind, members, grant)
		})
	if err != nil {
		for _, m := range group.Members {
			m.err = fmt.Errorf("batch %s: %w", g.id, err)
			m.done = true
			m.sig.Fire()
		}
		return
	}
	grantAt := p.Now()
	b.onMem(grantAt)

	// One batched kernel invocation owns the device; the grant is held
	// across the sleep exactly like a serial client's.
	srv.gpu.Acquire(p)
	busy := costmodel.BatchedTime(maxDur, len(group.Members))
	p.Sleep(busy)
	srv.gpu.Release()
	srv.scheduler.Complete(g.id)
	b.onMem(p.Now())
	// One release/re-collection cycle per batch — the batched path's
	// core saving over per-client release (Table 2's per-client cost).
	if maxRel > 0 {
		p.Sleep(maxRel)
	}
	doneAt := p.Now()

	// Bill each member its share of the device time, proportional to
	// its serial duration so heterogeneous members split the batch the
	// way the row-partitioned kernel actually spends it. Integer
	// remainders go to the last member, keeping Σ shares exact.
	total := doneAt - grantAt
	var billed time.Duration
	rows := make([]batch.MemberRows, len(group.Members))
	for i, m := range group.Members {
		share := total
		if totalDur > 0 {
			share = time.Duration(float64(total) * (float64(m.dur) / float64(totalDur)))
		}
		if i == len(group.Members)-1 {
			share = total - billed
		}
		billed += share
		m.wait = grantAt - m.joined + costmodel.SchedulerDecisionTime
		m.compute = share
		m.stall = doneAt - grantAt - share
		rows[i] = batch.MemberRows{Client: m.id, Rows: m.rows}
	}
	b.metrics.Record(rows, hold.Seconds())
	for _, m := range group.Members {
		m.done = true
		m.sig.Fire()
	}
}
