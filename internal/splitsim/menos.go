package splitsim

import (
	"errors"
	"fmt"
	"time"

	"menos/internal/batch"
	"menos/internal/costmodel"
	"menos/internal/fleet"
	"menos/internal/gpu"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/sim"
	"menos/internal/simnet"
)

// Fleet-dynamics cost model: moving a client between servers ships its
// persistent state (adapter, gradients, optimizer) over the
// inter-server network, and an unplaceable client retries after a
// backoff. Both are virtual-time costs, so fleet decisions show up in
// the same iteration-time figures as everything else.
const (
	// interServerBandwidth models a 10 GbE cluster fabric.
	interServerBandwidth = 10e9 / 8 // bytes/s
	// migrationLatency is the fixed setup cost of a migration
	// (handshake, context creation on the target).
	migrationLatency = 5 * time.Millisecond
	// placementRetry is the base backoff of a client no server can
	// admit yet (jittered per client, like the shed-retry backoff).
	placementRetry = 2 * time.Second
	// placementAttempts bounds the placement retry loop so an
	// impossible workload surfaces as an error instead of a livelock
	// against the autoscaler's tick chain.
	placementAttempts = 64
)

// migrationTime is the virtual-time cost of moving bytes of client
// state to another server.
func migrationTime(bytes int64) time.Duration {
	return migrationLatency + time.Duration(float64(bytes)/interServerBandwidth*float64(time.Second))
}

// serverSim is one Menos server in the simulation: its own GPUs, base
// copy and scheduler. The scheduler's budget is the memory left after
// the base copy and manager context; per-client persistent state is
// carved out of that budget with Reserve, so Schedulable() always
// reflects what a transient request can actually win.
type serverSim struct {
	id        int
	devices   *gpu.DeviceSet
	scheduler *sched.Scheduler
	// Batched serving only: former forms this server's batches, and gpu
	// is its kernel-invocation slot — one batched invocation owns the
	// device at a time.
	former *batch.Former[*simMember, *simLead]
	gpu    *sim.Resource
	// maxDemand is the largest transient peak among clients ever
	// admitted here; arrivals that would squeeze Schedulable below it
	// are refused (they would deadlock a resident client).
	maxDemand int64
	draining  bool
	removed   bool
	// transient is this server's share of the memory timeline as last
	// read (see menosRun.refresh).
	transient int64
	// sig is what the fleet Manager last saw of this server: refresh
	// pushes the scheduler's gauges, used the device usage.
	sig fleet.Signals
}

// menosRun is one Menos simulation's shared state. Every handler runs on
// the kernel's single thread, so plain fields suffice.
type menosRun struct {
	cfg     Config
	kernel  *sim.Kernel
	link    *simnet.Link
	placer  fleet.Placer
	mgr     *fleet.Manager
	ledger  *obs.Ledger
	servers []*serverSim
	batcher *simBatcher
	// perServer is the clients a server is sized for: an even share of
	// the roster, which an uneven placement outgrows.
	perServer int

	clients  []menosClient
	results  []ClientResult
	profiles map[profileKey][]*profile
	// persistent is the device memory a static fleet holds between
	// iterations, summed once every client is admitted.
	persistent int64

	peakServers int
	waits       WaitStats
	rejected    int64 // admission sheds
	hidden      time.Duration
	// samples is the transient-memory timeline; transient is its
	// current value, the sum of every server's last-read share.
	samples   []MemSample
	transient int64

	// Fleet dynamics state (autoscaled runs only).
	remaining    int
	pendingPlace int
	fleetErr     error
	autoscaler   *fleet.Autoscaler
	tick         func()

	// Wire-plane instrumentation mirrors the TCP runtime's families
	// (docs/WIRE.md): compressed counts the on-wire bytes of quantized
	// payloads, raw the fp32 bytes they replaced, and the overlap
	// histogram observes per-iteration hidden time in virtual seconds.
	// All handles are nil-safe, so an uninstrumented run pays nothing.
	wireCompressed *obs.Counter
	wireRaw        *obs.Counter
	hiddenHist     *obs.Histogram
}

// runMenos simulates the Menos server: one shared base-model copy,
// per-client serving handlers, on-demand memory allocation under the
// configured policy, and the Algorithm-2 scheduler.
//
// GPU compute is modeled as freely time-shared (CUDA streams): the
// scarce, scheduled resource is memory, exactly as in the paper. The
// growing cost of concurrency appears as the release/re-collection
// overhead of Table 2, which scales with the per-GPU client density.
//
// Multi-server runs go through the fleet control plane
// (internal/fleet): Config.Placer assigns clients to servers (default
// RoundRobin, bit-identical to the historical i mod Servers
// assignment) and Config.Autoscale lets servers join and drain mid-run
// with clients migrating at iteration boundaries.
func runMenos(cfg Config) (*Result, error) {
	r, err := newMenosRun(cfg)
	if err != nil {
		return nil, err
	}
	kernel := r.kernel
	for i := range r.clients {
		r.clients[i].start()
	}

	if err := kernel.Run(); err != nil {
		return nil, fmt.Errorf("menos simulation: %w", err)
	}
	if r.fleetErr != nil {
		return nil, fmt.Errorf("menos fleet: %w", r.fleetErr)
	}
	persistent := r.persistent
	if cfg.Autoscale != nil {
		for _, srv := range r.servers {
			if !srv.removed {
				persistent += srv.devices.Used()
			}
		}
	}

	var schedStats sched.Stats
	var admission sched.AdmissionStats
	for i, srv := range r.servers {
		st, ast := srv.scheduler.Stats(), srv.scheduler.AdmissionStats()
		// Schedulers instrumented into one registry share its counters,
		// so each one's counts are already the fleet's: take them once.
		if i == 0 || cfg.Metrics == nil {
			schedStats.Submitted += st.Submitted
			schedStats.Granted += st.Granted
			schedStats.Backfilled += st.Backfilled
			schedStats.Completed += st.Completed
			admission.Shed += ast.Shed
		}
		schedStats.Decisions += st.Decisions
		schedStats.MaxQueueDepth = max(schedStats.MaxQueueDepth, st.MaxQueueDepth)
		admission.Transitions += ast.Transitions
		admission.Deferred += ast.Deferred
		admission.State = max(admission.State, ast.State)
		admission.P99 = max(admission.P99, ast.P99)
	}
	fstats := r.mgr.Stats()
	res := &Result{
		Mode:            ModeMenos,
		Clients:         r.results,
		Aggregate:       aggregate(r.results),
		PersistentBytes: persistent,
		SchedStats:      schedStats,
		Rejected:        r.rejected,
		Admission:       admission,
		Waits:           r.waits,
		MemSamples:      r.samples,
		OverlapHidden:   r.hidden,
		SimulatedTime:   kernel.Now(),
		Fleet: FleetStats{
			Policy:         r.placer.Name(),
			StartServers:   cfg.Servers,
			FinalServers:   r.mgr.ActiveServers(),
			PeakServers:    r.peakServers,
			Placements:     fstats.Placements,
			Migrations:     fstats.Migrations,
			ScaleEvents:    fstats.ScaleEvents,
			ImbalanceRatio: r.mgr.Imbalance(),
		},
	}
	res.PeakBytes = persistent + res.PeakTransientBytes()
	return res, nil
}

// newMenosRun sets a run up to its first event: the servers, every
// client priced and bound to its schedule, and on a static fleet every
// client placed and admitted.
func newMenosRun(cfg Config) (*menosRun, error) {
	kernel := sim.New()
	r := &menosRun{
		cfg:       cfg,
		kernel:    kernel,
		link:      cfg.LinkPreset(kernel),
		remaining: len(cfg.Clients),
		perServer: (len(cfg.Clients) + cfg.Servers - 1) / cfg.Servers,
		profiles:  make(map[profileKey][]*profile),
	}

	// The fleet control plane. A nil Placer means RoundRobin, which
	// reproduces the historical hardcoded assignment bit-exactly.
	r.placer = cfg.Placer
	if r.placer == nil {
		r.placer = fleet.NewRoundRobin()
	}
	r.mgr = fleet.NewManager(r.placer, cfg.Metrics)
	r.mgr.Expect(len(cfg.Clients))

	// Per-tenant accounting on the virtual clock. One ledger spans the
	// whole fleet (rows are per client, wherever placed); every method
	// is nil-receiver safe, so an uninstrumented run pays nothing. The
	// ledger only observes — it never advances virtual time — so
	// enabling it cannot perturb the simulation's schedule.
	if cfg.Metrics != nil {
		r.ledger = obs.NewLedger(obs.LedgerConfig{Clock: obs.ClockFunc(kernel.Now), Metrics: cfg.Metrics})
	}

	// One server instance per cfg.Servers (plus any the autoscaler
	// adds), each with its own shared base copy (sharded over its
	// GPUs), manager context and scheduler.
	for s := 0; s < cfg.Servers; s++ {
		if _, err := r.newServer(); err != nil {
			return nil, err
		}
	}

	r.wireCompressed = cfg.Metrics.Counter(obs.MetricWireCompressedBytes, "On-wire bytes of compressed activation payloads (simulated).")
	r.wireRaw = cfg.Metrics.Counter(obs.MetricWireRawBytes, "fp32 bytes the compressed payloads replaced (simulated).")
	r.hiddenHist = cfg.Metrics.Histogram(obs.MetricOverlapHiddenSeconds, obs.DurationBuckets(), "Per-iteration virtual time hidden by comm/compute overlap.")

	// Batched server phases (docs/BATCHING.md): compatible forward and
	// backward requests coalesce into one kernel invocation, formed in
	// virtual time under the same policy and metrics the wall-clock
	// engine (internal/batch) uses. Nil when batching is disabled, which
	// leaves the serial path — and its virtual-time trace — untouched.
	if cfg.Batch != nil && cfg.Batch.Enabled() {
		pol := cfg.Batch.WithDefaults()
		bm := batch.NewMetrics(cfg.Metrics, r.ledger, pol.MaxSize)
		r.batcher = newSimBatcher(kernel, r, pol, bm)
	}

	// Each client's demands and phase times come from its profile,
	// priced once per distinct workload and platform (profileOf). Every
	// client waits on a signal of its own, for its grant or its batch.
	r.clients = make([]menosClient, len(cfg.Clients))
	r.results = make([]ClientResult, len(cfg.Clients))
	waits := kernel.NewSignals(len(cfg.Clients))
	var joins []sim.Signal
	if cfg.Overlap {
		joins = kernel.NewSignals(len(cfg.Clients))
	}
	var owners arena
	for i := range r.clients {
		c := &r.clients[i]
		r.results[i].ID = cfg.Clients[i].ID
		c.persistOwner = owners.join("persist:", cfg.Clients[i].ID)
		c.init(r, i, &waits[i])
		if joins != nil {
			c.joined = &joins[i]
		}
	}
	clients := r.clients

	// Static fleets place every client up front in arrival order — the
	// admission-time decision of a deployment where the roster is known
	// — which with RoundRobin reproduces the historical assignment
	// exactly. Autoscaled fleets place each client when it arrives (see
	// the client schedule).
	if cfg.Autoscale == nil {
		for i := range clients {
			c := &clients[i]
			id, err := r.mgr.Place(c.ci)
			if err != nil {
				return nil, err
			}
			if err := r.admitClient(r.servers[id], c); err != nil {
				return nil, err
			}
		}
		for _, srv := range r.servers {
			r.persistent += srv.devices.Used()
		}
		// Release-overhead concurrency: clients per GPU on the client's
		// server (allocator fragmentation is per-device). For a static
		// fleet the roster is fixed, so the density is too; autoscaled
		// runs recompute it per iteration.
		for i := range clients {
			c := &clients[i]
			id, _ := r.mgr.ServerOf(c.id)
			c.srv = r.servers[id]
			c.staticRelease = c.prof.cost.ReleaseOverhead(r.density(id))
		}
	}

	if cfg.Autoscale != nil {
		r.autoscaler = fleet.NewAutoscaler(*cfg.Autoscale)
		r.tick = r.autoscale
		kernel.After(r.autoscaler.Interval(), r.tick)
	}
	return r, nil
}

// newServer brings one server into the fleet: its GPUs, the shared base
// copy, the manager context and a scheduler on the virtual clock.
func (r *menosRun) newServer() (*serverSim, error) {
	cfg, kernel := &r.cfg, r.kernel
	w0 := cfg.Clients[0].Workload
	id := len(r.servers)
	devices, err := gpu.NewDeviceSet(cfg.GPUSpec, cfg.GPUs, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	if _, err := devices.AllocSharded("base-model", w0.ServerBaseBytes()); err != nil {
		return nil, fmt.Errorf("server %d: loading shared base model: %w", id, err)
	}
	if _, err := devices.Alloc("manager", memmodel.ManagerOverheadBytes); err != nil {
		return nil, fmt.Errorf("server %d: manager context: %w", id, err)
	}
	srv := &serverSim{id: id, devices: devices}
	// The virtual clock: scheduler wait times and spans are measured in
	// kernel time, so the telemetry of a simulated run reads exactly
	// like a real one (only ~10^6× faster to produce).
	srv.scheduler = sched.New(devices.Available(), cfg.SchedPol)
	// One record per client, its reservation included.
	srv.scheduler.Expect(r.perServer)
	w := sched.Wiring{Metrics: cfg.Metrics, Clock: obs.ClockFunc(kernel.Now), Ledger: r.ledger, SLO: cfg.SLO}
	if cfg.Flight != nil {
		// The kernel is single-threaded, so the synchronous Trigger
		// keeps flight snapshots deterministic across runs.
		w.AdmissionHook = func(from, to sched.AdmissionState) {
			cfg.Flight.Trigger(obs.FlightReasonAdmission)
		}
	}
	if err := srv.scheduler.Wire(w); err != nil {
		return nil, fmt.Errorf("server %d: %w", id, err)
	}
	if cfg.Batch != nil && cfg.Batch.Enabled() {
		srv.former = batch.NewFormer[*simMember, *simLead](cfg.Batch.MaxSize)
		srv.gpu = kernel.NewResource(fmt.Sprintf("gpu:%d", id), 1)
	}
	r.servers = append(r.servers, srv)
	if err := r.mgr.AddServer(id, devices.Capacity(), []string{w0.Model.Name}); err != nil {
		return nil, err
	}
	r.used(srv)
	if n := r.mgr.ActiveServers(); n > r.peakServers {
		r.peakServers = n
	}
	return srv, nil
}

// density is the clients per GPU on server id, the concurrency the
// release overhead scales with.
func (r *menosRun) density(id int) int {
	return (r.mgr.ClientCount(id) + r.cfg.GPUs - 1) / r.cfg.GPUs
}

// admitClient physically lands c's persistent state on srv: device
// memory plus its enrollment's reservation, so the schedulable budget
// shrinks exactly as the historical post-persist budget did.
func (r *menosRun) admitClient(srv *serverSim, c *menosClient) error {
	ci, owner := &c.ci, c.persistOwner
	if _, err := srv.devices.Alloc(owner, ci.PersistentBytes); err != nil {
		return fmt.Errorf("client %q persistent state: %w", ci.ID, err)
	}
	h, err := srv.scheduler.Enroll(ci.ID)
	if err == nil {
		err = h.Reserve(ci.PersistentBytes)
	}
	if err != nil {
		h.Forget()
		srv.devices.FreeOwner(owner)
		return fmt.Errorf("client %q persistent state: %w", ci.ID, err)
	}
	c.member.handle = h
	if ci.TransientPeakBytes > srv.maxDemand {
		srv.maxDemand = ci.TransientPeakBytes
	}
	r.used(srv)
	return nil
}

// canAdmit is the dynamic-arrival feasibility gate: after reserving
// the persistent state, the schedulable budget must still fit both
// the newcomer's and every resident's transient peak, or someone's
// Submit would fail ErrNeverFits and stall forever.
func (r *menosRun) canAdmit(srv *serverSim, ci fleet.ClientInfo) bool {
	if srv.draining || srv.removed {
		return false
	}
	budget := srv.scheduler.Schedulable() - ci.PersistentBytes
	need := ci.TransientPeakBytes
	if srv.maxDemand > need {
		need = srv.maxDemand
	}
	return budget >= need
}

// refresh re-reads srv's transient scheduled memory — the schedulable
// budget minus what is still free (persistent reservations cancel out)
// — into the fleet total, and pushes its queue depth and admission state
// to the fleet Manager if they moved. Every scheduler call that can move
// any of them is followed by a refresh of that server before anything
// else samples or places, so the total always equals a sum over every
// server and each placement sees every server's live state.
func (r *menosRun) refresh(srv *serverSim) {
	load := srv.scheduler.Load()
	v := load.Schedulable - load.Available
	r.transient += v - srv.transient
	srv.transient = v
	depth, adm := load.QueueDepth, fleet.AdmissionState(load.Admission)
	if depth != srv.sig.QueueDepth || adm != srv.sig.Admission {
		srv.sig.QueueDepth, srv.sig.Admission = depth, adm
		r.mgr.Observe(srv.id, srv.sig)
	}
}

// used pushes srv's device usage to the fleet Manager. It follows every
// Alloc and FreeOwner on a server still in the fleet, the only calls
// that move it.
func (r *menosRun) used(srv *serverSim) {
	srv.sig.UsedBytes = srv.devices.Used()
	r.mgr.Observe(srv.id, srv.sig)
}

// sampleMem records one point of the transient-memory timeline after
// srv's scheduler changed.
func (r *menosRun) sampleMem(at time.Duration, srv *serverSim) {
	r.refresh(srv)
	// Coalesce same-instant transitions: keep the last value.
	if n := len(r.samples); n > 0 && r.samples[n-1].At == at {
		r.samples[n-1].Bytes = r.transient
		return
	}
	r.samples = append(r.samples, MemSample{At: at, Bytes: r.transient})
}

func (r *menosRun) recordWait(kind sched.RequestKind, d time.Duration) {
	if kind == sched.KindForward {
		r.waits.ForwardTotal += d
		r.waits.Forwards++
	} else {
		r.waits.BackwardTotal += d
		r.waits.Backwards++
	}
}

// shed books one admission shed against the client it turned away: a
// serial submission's, or a batch member's.
func (r *menosRun) shed(id string) {
	r.rejected++
	r.ledger.Retry(id)
	if r.cfg.Flight != nil {
		r.cfg.Flight.Trigger(obs.FlightReasonShed)
	}
}

func (r *menosRun) failFleet(err error) {
	if r.fleetErr == nil {
		r.fleetErr = err
	}
}

// decommission retires a drained server once its last client left:
// base copy and manager context are freed, the scheduler closed, and
// the server leaves the fleet bookkeeping.
func (r *menosRun) decommission(srv *serverSim) {
	if !srv.draining || srv.removed || r.mgr.ClientCount(srv.id) > 0 {
		return
	}
	if err := r.mgr.Remove(srv.id); err != nil {
		r.failFleet(err)
		return
	}
	srv.removed = true
	srv.scheduler.Close()
	srv.devices.FreeOwner("base-model")
	srv.devices.FreeOwner("manager")
}

// autoscale is the autoscaler's tick on the virtual clock: add or
// drain a server from queue-depth and admission signals, then re-arm.
func (r *menosRun) autoscale() {
	if r.remaining == 0 || r.fleetErr != nil {
		return // last client done: let the kernel run dry
	}
	switch r.autoscaler.Decide(r.kernel.Now(), r.pendingPlace, r.mgr.Loads()) {
	case fleet.ScaleUp:
		if _, err := r.newServer(); err != nil {
			r.failFleet(fmt.Errorf("fleet scale-up: %w", err))
			return
		}
		r.mgr.RecordScaleEvent()
	case fleet.ScaleDown:
		if id, ok := r.mgr.DrainCandidate(); ok {
			if err := r.mgr.Drain(id); err != nil {
				r.failFleet(err)
				return
			}
			r.servers[id].draining = true
			r.mgr.RecordScaleEvent()
			r.decommission(r.servers[id])
		}
	}
	r.kernel.After(r.autoscaler.Interval(), r.tick)
}

// menosClient is one client's serving schedule and everything it keeps
// between events. step runs the schedule from pc until something
// blocks; every blocking primitive is handed the one continuation
// bound in init, advance, so an event costs no allocation here and
// binding it is the one allocation of a batched client's own set-up.
type menosClient struct {
	clientLoop
	r    *menosRun
	i    int
	spec *ClientSpec
	// prof is the client's priced workload, shared with every client
	// running the same one; ci is the fleet's view of it.
	prof         *profile
	ci           fleet.ClientInfo
	persistOwner string // device owner tag of its persistent state

	srv           *serverSim
	staticRelease time.Duration

	// Schedule position and loop state.
	pc          clientPC
	ph          int // the server phase in flight: 0 forward, 1 backward
	iter        int
	attempt     int  // placement or migration retries so far
	counted     bool // counted in the autoscaler's pending placements
	held        bool // a grant is held on c.srv
	releaseCost time.Duration
	// Overlap: when the iteration's wire+server leg began, and what the
	// client's Breakdown totalled then.
	iterStart, iterBilled time.Duration

	// Grant in flight (serial serving).
	kind  sched.RequestKind
	bytes int64
	gw    grantWait

	// Migration in flight (autoscaled runs).
	from, to *serverSim

	// Batched serving: this client's share of the group it joins.
	member simMember

	// Overlap: the client-compute side of the iteration and its join.
	sidePC      int
	computeDone bool
	joined      *sim.Signal

	side func()
	fits func(serverID int) bool
}

// clientPC is a position in menosClient.step's schedule.
type clientPC int

// The schedule's positions, in loop order.
const (
	pcArrive clientPC = iota
	pcPlace
	pcIterate
	pcMigrateAdmit
	pcMigrated
	pcClientPre
	pcUploadXC
	pcGrant // server phase c.ph: forward, then backward
	pcGranted
	pcBatched
	pcRejoin
	pcCompute
	pcRelease
	pcDownloadXS
	pcClientMid
	pcUploadGC
	pcOptimizer
	pcDownloadGS
	pcClientPost
	pcJoin
	pcDepart
)

// afterPhase is where the schedule resumes after each server phase.
var afterPhase = [2]clientPC{pcDownloadXS, pcOptimizer}

// init binds client i to its profile and its schedule; wait is the
// signal it parks on for a grant or, batched, for its batch.
func (c *menosClient) init(r *menosRun, i int, wait *sim.Signal) {
	cfg := &r.cfg
	spec := &cfg.Clients[i]
	p := r.profileOf(spec)
	c.initLoop(r.kernel, r.link, cfg.Tracer, spec.ID, &r.results[i].Breakdown, p.rawTransfer, c.step)
	c.ledger = r.ledger
	if cfg.WireCodec != quant.CodecFP32 {
		c.transfer = p.transfer
		c.wireCompressed, c.wireRaw = r.wireCompressed, r.wireRaw
	}
	c.r, c.i, c.spec, c.prof = r, i, spec, p
	c.ci = p.info
	c.ci.ID = spec.ID

	if r.batcher != nil {
		c.member = simMember{id: spec.ID, rows: p.rows, sig: wait, then: c.advance}
	} else {
		c.gw.init(c, wait)
	}
	if cfg.Overlap {
		c.side = c.overlap
	}
	if cfg.Autoscale != nil {
		c.fits = func(id int) bool { return r.canAdmit(r.servers[id], c.ci) }
	}
}

// start schedules the client's arrival at the current time.
func (c *menosClient) start() { c.kernel.After(0, c.advance) }

// step is the client's serving schedule, written once and in order: the
// placement at arrival, then per iteration the rebalance check, client
// input section, x_c upload, server forward, x_s download, client output
// section and loss, g_c upload, server backward, optimizer, g_s download
// and client backward. Each case does its work and either moves pc on
// and continues, or hands c.advance (or a landing that ends in it) to a
// primitive and returns; a primitive that does not block runs it in
// place.
func (c *menosClient) step() {
	r := c.r
	cfg := &r.cfg
	k := c.kernel
	c.land()
	for {
		switch c.pc {
		case pcArrive:
			c.pc = pcPlace
			if c.spec.StartDelay > 0 {
				k.After(c.spec.StartDelay, c.advance)
				return
			}

		case pcPlace:
			// Autoscaled fleets place the client at arrival. When no
			// server can physically admit it yet, the client backs off
			// and retries; the pending count is the autoscaler's
			// strongest grow signal.
			if cfg.Autoscale != nil {
				if c.attempt < placementAttempts && !c.place() {
					c.attempt++
					k.After(placementRetry+placementRetry*time.Duration(c.i%8)/8, c.advance)
					return
				}
				if c.counted {
					r.pendingPlace--
				}
				if c.srv == nil {
					c.fail(fmt.Errorf("client %q: no server could admit it after %d attempts", c.id, placementAttempts))
					return
				}
			}
			c.pc = pcIterate

		case pcIterate:
			if c.iter == cfg.Iterations {
				c.pc = pcDepart
				continue
			}
			c.tid = obs.IterTraceID(c.id, c.iter)
			c.pc = pcClientPre
			// Fleet rebalance check (autoscaled runs): evacuate a
			// draining server, or follow a strictly better placement.
			if cfg.Autoscale != nil && c.iter > 0 {
				target, moved, err := r.mgr.Rebalance(c.ci, c.fits)
				if err != nil {
					c.fail(err)
					return
				}
				if moved {
					c.beginMigration(r.servers[target])
					c.pc = pcMigrateAdmit
				}
			}

		case pcMigrateAdmit:
			if err := r.admitClient(c.to, c); err != nil {
				if c.attempt >= placementAttempts {
					c.fail(fmt.Errorf("client %q: migration to server %d failed after %d attempts", c.id, c.to.id, placementAttempts))
					return
				}
				// Target memory still held by in-flight grants: wait for
				// them to complete.
				c.attempt++
				k.After(placementRetry, c.advance)
				return
			}
			c.pc = pcMigrated
			k.After(migrationTime(c.ci.PersistentBytes), c.advance)
			return

		case pcMigrated:
			c.bill(obs.SpanMigrate, c.opStart, k.Now()-c.opStart)
			r.sampleMem(k.Now(), c.to)
			c.srv = c.to
			r.decommission(c.from)
			c.pc = pcClientPre

		case pcClientPre:
			c.releaseCost = c.staticRelease
			if cfg.Autoscale != nil {
				c.releaseCost = c.prof.cost.ReleaseOverhead(r.density(c.srv.id))
			}
			// Overlapped iteration (docs/WIRE.md): the client-local
			// compute runs as its own handler, concurrent with the
			// wire+server leg below, modeling the steady state of the
			// double-buffered microbatch pipeline — each client segment
			// of microbatch i+1 hides under the transfers and server
			// phases of microbatch i, so the iteration's wall time is the
			// slower leg (costmodel.OverlapStepTime), not the serial sum.
			// The Breakdown still records serial totals (comm, comp,
			// sched are resource costs, not wall time); the savings show
			// up in SimulatedTime and the hidden-time histogram. Only the
			// validated envelope (on-demand policy, serial serving,
			// static fleet) sets Overlap; the client segments below are
			// then skipped.
			c.iterStart, c.iterBilled = k.Now(), c.bd.total()
			c.pc = pcUploadXC
			if cfg.Overlap {
				c.computeDone, c.sidePC = false, 0
				k.After(0, c.side)
				continue
			}
			// Client computes the input section and uploads x_c.
			c.computeLocal(spanClientPre, c.prof.pre)
			return

		case pcUploadXC:
			c.pc, c.ph = pcGrant, 0
			c.upload(spanUploadXC)
			return

		// ---- Server: phase c.ph, grant → compute → release ----
		case pcGrant:
			p := &c.prof.phases[c.ph]
			if r.batcher != nil {
				// The batch leader grants, computes and releases.
				c.pc = pcBatched
				c.batchPhase(p)
				return
			}
			c.pc = pcCompute
			// A grant still held (3(b)'s backward, 3(a) after its
			// first forward) serves this phase too.
			if !c.held {
				c.held = true
				c.pc = pcGranted
				c.grant(p.kind, p.grant)
				return
			}

		case pcGranted:
			if err := c.gw.err; err != nil {
				// Requests that can never fit stall the client forever; the
				// deadlock detector will surface it with this reason.
				k.NewSignal().Wait(fmt.Sprintf("unschedulable: %v", err), nil)
				return
			}
			// The recorded wait spans all attempts and backoffs, plus the
			// fixed scheduler decision cost, which does not advance
			// virtual time; the span is kept equal to what the Breakdown
			// records.
			now := k.Now()
			d := now - c.opStart + costmodel.SchedulerDecisionTime
			r.recordWait(c.kind, d)
			r.sampleMem(now, c.srv)
			wait, _ := c.kind.Spans()
			c.bill(wait, c.opStart, d)
			c.pc = pcCompute

		case pcBatched:
			if !c.batchLanded() {
				return
			}
			c.pc = afterPhase[c.ph]

		case pcRejoin:
			// Shed from its batch, and backed off: join another.
			c.pc = pcBatched
			c.joinBatch()
			return

		case pcCompute:
			p := &c.prof.phases[c.ph]
			c.pc = pcRelease
			c.compute(p.span, p.dur)
			return

		case pcRelease:
			p := &c.prof.phases[c.ph]
			c.pc = afterPhase[c.ph]
			if p.release {
				// Re-collecting the freed memory is Table 2's growing
				// overhead, paid after the grant is returned.
				c.release()
				if p.cycleDiv > 0 {
					c.compute(spanReleaseCycle, c.cycleShare(p))
					return
				}
			}

		// Server returns x_s; client runs the output section, computes
		// the loss, and uploads g_c.
		case pcDownloadXS:
			c.pc = pcClientMid
			c.download(spanDownloadXS)
			return

		case pcClientMid:
			c.pc = pcUploadGC
			if !cfg.Overlap {
				c.computeLocal(spanClientMid, c.prof.mid)
				return
			}

		case pcUploadGC:
			c.pc, c.ph = pcGrant, 1
			c.upload(spanUploadGC)
			return

		case pcOptimizer:
			c.pc = pcDownloadGS
			c.compute(spanOptimizer, costmodel.OptimizerStepTime)
			return

		// Server returns g_s; client finishes its backward and optimizer
		// step.
		case pcDownloadGS:
			c.pc = pcClientPost
			c.download(spanDownloadGS)
			return

		case pcClientPost:
			c.pc = pcJoin
			if !cfg.Overlap {
				c.computeLocal(spanClientPost, c.prof.post)
				return
			}

		case pcJoin:
			if cfg.Overlap {
				if !c.computeDone {
					c.joined.WaitFor("overlap join", c.id, c.advance)
					return
				}
				if hidden := c.bd.total() - c.iterBilled - (k.Now() - c.iterStart); hidden > 0 {
					r.hidden += hidden
					r.hiddenHist.Observe(hidden.Seconds())
				}
			}
			c.bd.iterations++
			r.ledger.AddIteration(c.id)
			c.iter++
			c.pc = pcIterate

		case pcDepart:
			// Autoscaled clients depart when done: persistent state
			// leaves the server (offloaded host-side), which lets a
			// draining server finish emptying. Static runs keep the
			// historical semantics — state held until the run ends.
			if cfg.Autoscale != nil {
				c.member.handle.Forget()
				c.srv.devices.FreeOwner(c.persistOwner)
				r.used(c.srv)
				r.mgr.Depart(c.id)
				r.sampleMem(k.Now(), c.srv)
				r.decommission(c.srv)
			}
			r.remaining--
			return
		}
	}
}

// fail ends the client's schedule on a fleet error.
func (c *menosClient) fail(err error) {
	c.r.failFleet(err)
	c.r.remaining--
}

// place tries once to place the client on a server that can admit it.
func (c *menosClient) place() bool {
	r := c.r
	id, err := r.mgr.Place(c.ci)
	if err == nil {
		cand := r.servers[id]
		if r.canAdmit(cand, c.ci) && r.admitClient(cand, c) == nil {
			c.srv = cand
			return true
		}
		r.mgr.Unplace(c.id)
	}
	if !c.counted {
		r.pendingPlace++
		c.counted = true
	}
	return false
}

// beginMigration follows a fleet decision to move this client: release
// everything held here; the schedule then re-admits it on dst and ships
// the persistent state. Runs only between iterations, so the only grant
// it can find held is a session-long one, which dst grants again.
func (c *menosClient) beginMigration(dst *serverSim) {
	old := c.srv
	c.opStart = c.kernel.Now()
	c.from, c.to, c.attempt, c.held = old, dst, 0, false
	c.member.handle.Forget()
	old.devices.FreeOwner(c.persistOwner)
	c.r.used(old)
	c.r.refresh(old)
}

// overlap is an overlapped iteration's client-compute side: the three
// client segments back to back, then the join.
func (c *menosClient) overlap() {
	k, p := c.kernel, c.prof
	c.sidePC++
	switch c.sidePC {
	case 1:
		k.After(p.pre, c.side)
	case 2:
		c.bill(obs.SpanClientPre, k.Now()-p.pre, p.pre)
		k.After(p.mid, c.side)
	case 3:
		c.bill(obs.SpanClientMid, k.Now()-p.mid, p.mid)
		k.After(p.post, c.side)
	case 4:
		c.bill(obs.SpanClientPost, k.Now()-p.post, p.post)
		c.computeDone = true
		c.joined.Fire()
	}
}

// grant requests bytes of kind memory and continues once it is held.
func (c *menosClient) grant(kind sched.RequestKind, bytes int64) {
	c.kind, c.bytes, c.opStart = kind, bytes, c.kernel.Now()
	c.gw.await()
}

// submit is c.gw's submission: one Submit, after which the server's
// share of the memory timeline is re-read (the cycle it ran may have
// granted others).
func (c *menosClient) submit(grant func()) error {
	err := c.member.handle.Submit(c.kind, c.bytes, grant)
	c.r.refresh(c.srv)
	return err
}

// shed is c.gw's shed bookkeeping.
func (c *menosClient) shed() { c.r.shed(c.id) }

func (c *menosClient) release() {
	c.held = false
	c.member.handle.Complete()
	c.r.sampleMem(c.kernel.Now(), c.srv)
}

// cycleShare is what p's release costs of this iteration's
// release/re-collect cycle.
func (c *menosClient) cycleShare(p *serverPhase) time.Duration {
	if p.cycleDiv == 0 {
		return 0
	}
	return c.releaseCost / time.Duration(p.cycleDiv)
}

// batchPhase runs server phase p through the batcher instead of
// grant/compute/release: the member waits until its batch executes,
// then bills its share — grant wait and residency stall into the sched
// bucket, its row share of the batched kernel into compute (so Σ
// clients' compute equals the device time actually spent). The leader
// pays the release cycle once per batch, not once per member.
func (c *menosClient) batchPhase(p *serverPhase) {
	m := &c.member
	m.bytes, m.dur, m.release = p.grant, p.dur, c.cycleShare(p)
	c.kind, c.opStart = p.kind, c.kernel.Now()
	m.joined = c.opStart
	c.joinBatch()
}

// joinBatch joins the member to its server's forming group for the
// phase in flight.
func (c *menosClient) joinBatch() {
	key := batch.Key{Cut: c.prof.cut, Seq: c.prof.seq, Kind: c.kind}
	c.r.batcher.join(c.srv, key, &c.member)
}

// batchLanded bills the member's share of the batch that ran its phase,
// reporting true. It reports false when there is nothing to bill yet:
// admission control shed the member from its batch, and it backs off
// and joins another, exactly as a shed serial client resubmits; or the
// batch never could run, which ends its schedule.
func (c *menosClient) batchLanded() bool {
	r, m := c.r, &c.member
	if m.err != nil {
		c.fail(fmt.Errorf("client %q: %v", c.id, m.err))
		return false
	}
	if m.shed != nil {
		r.shed(c.id)
		c.pc = pcRejoin
		c.kernel.After(backoff(m.shed, c.i%8), c.advance)
		return false
	}
	start := c.opStart
	r.recordWait(c.kind, m.wait)
	wait, _ := c.kind.Spans()
	c.bill(wait, start, m.wait)
	grantAt := start + m.wait - costmodel.SchedulerDecisionTime
	c.bill(loopSpans[c.prof.phases[c.ph].span], grantAt, m.compute)
	if m.stall > 0 {
		c.bill(obs.SpanBatchStall, grantAt+m.compute, m.stall)
	}
	r.ledger.AddCompute(c.id, m.compute.Seconds())
	return true
}

// grantWait is a serial client's scheduling request in flight; owner
// submits it. An admission shed runs owner.shed, backs off for the
// controller's hint and resubmits, exactly like a real client; the
// backoff is jittered deterministically (backoff, by the client's index
// mod 8) so shed clients do not resubmit in a synchronized herd. A grant
// delivered inside submit continues in place; a later one wakes the
// client through sig. Either way its schedule continues once the grant
// is held. Any other error can never be granted: the schedule continues
// at once with err set. A wait is reported as "memory grant <client>"
// in a deadlock.
type grantWait struct {
	owner          *menosClient
	sig            *sim.Signal
	granted        bool
	err            error
	onGrant, retry func()
}

func (w *grantWait) init(owner *menosClient, sig *sim.Signal) {
	*w = grantWait{owner: owner, sig: sig}
	w.onGrant = w.deliver
	w.retry = w.try
}

// await submits the request.
func (w *grantWait) await() {
	w.granted, w.err = false, nil
	w.try()
}

func (w *grantWait) try() {
	c := w.owner
	err := c.submit(w.onGrant)
	if err == nil {
		if w.granted {
			c.advance()
		} else {
			w.sig.WaitFor("memory grant", c.id, c.advance)
		}
		return
	}
	var ov *sched.OverloadError
	if !errors.As(err, &ov) {
		w.err = err
		c.advance()
		return
	}
	c.shed()
	c.kernel.After(backoff(ov, c.i%8), w.retry)
}

// backoff is how long a client shed with ov waits before it tries again:
// the controller's hint, stretched by jitter eighths of it.
func backoff(ov *sched.OverloadError, jitter int) time.Duration {
	return ov.RetryAfter + ov.RetryAfter*time.Duration(jitter)/8
}

// deliver is the scheduler's grant callback.
func (w *grantWait) deliver() {
	w.granted = true
	w.sig.Fire()
}
