package splitsim

import (
	"errors"
	"fmt"
	"strings"
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
	"menos/internal/trace"
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

// runMenos simulates the Menos server: one shared base-model copy,
// per-client serving processes, on-demand memory allocation under the
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
//
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
	former *batch.Former[*simMember, simGroup]
	gpu    *sim.Resource
	// maxDemand is the largest transient peak among clients ever
	// admitted here; arrivals that would squeeze Schedulable below it
	// are refused (they would deadlock a resident client).
	maxDemand int64
	draining  bool
	removed   bool
}

func runMenos(cfg Config) (*Result, error) {
	kernel := sim.New()
	link := cfg.LinkPreset(kernel)

	// The fleet control plane. A nil Placer means RoundRobin, which
	// reproduces the historical hardcoded assignment bit-exactly.
	placer := cfg.Placer
	if placer == nil {
		placer = fleet.NewRoundRobin()
	}
	mgr := fleet.NewManager(placer)
	mgr.Instrument(cfg.Metrics)

	// Per-tenant accounting on the virtual clock. One ledger spans the
	// whole fleet (rows are per client, wherever placed); every method
	// is nil-receiver safe, so an uninstrumented run pays nothing. The
	// ledger only observes — it never advances virtual time — so
	// enabling it cannot perturb the simulation's schedule.
	var ledger *obs.Ledger
	if cfg.Metrics != nil {
		ledger = obs.NewLedger(obs.LedgerConfig{Clock: obs.ClockFunc(kernel.Now)})
		ledger.Instrument(cfg.Metrics)
	}

	// One server instance per cfg.Servers (plus any the autoscaler
	// adds), each with its own shared base copy (sharded over its
	// GPUs), manager context and scheduler.
	w0 := cfg.Clients[0].Workload
	var servers []*serverSim
	peakServers := 0
	newServer := func() (*serverSim, error) {
		id := len(servers)
		devices, err := gpu.NewDeviceSet(cfg.GPUSpec, cfg.GPUs)
		if err != nil {
			return nil, err
		}
		devices.Instrument(cfg.Metrics)
		if _, err := devices.AllocSharded("base-model", w0.ServerBaseBytes()); err != nil {
			return nil, fmt.Errorf("server %d: loading shared base model: %w", id, err)
		}
		if _, err := devices.Alloc("manager", memmodel.ManagerOverheadBytes); err != nil {
			return nil, fmt.Errorf("server %d: manager context: %w", id, err)
		}
		srv := &serverSim{id: id, devices: devices}
		// The virtual clock: scheduler wait times and spans are
		// measured in kernel time, so the telemetry of a simulated run
		// reads exactly like a real one (only ~10^6× faster to
		// produce).
		srv.scheduler = sched.New(devices.Available(), cfg.SchedPol)
		srv.scheduler.Instrument(cfg.Metrics, obs.ClockFunc(kernel.Now))
		srv.scheduler.SetLedger(ledger)
		if cfg.Batch != nil && cfg.Batch.Enabled() {
			srv.former = batch.NewFormer[*simMember, simGroup](cfg.Batch.MaxSize)
			srv.gpu = kernel.NewResource(fmt.Sprintf("gpu:%d", id), 1)
		}
		if cfg.SLO.Enabled() {
			if err := srv.scheduler.EnableAdmission(cfg.SLO, obs.ClockFunc(kernel.Now)); err != nil {
				return nil, fmt.Errorf("admission control: %w", err)
			}
		}
		if cfg.Flight != nil {
			// The kernel is single-threaded, so the synchronous Trigger
			// keeps flight snapshots deterministic across runs.
			srv.scheduler.SetAdmissionHook(func(from, to sched.AdmissionState) {
				cfg.Flight.Trigger(obs.FlightReasonAdmission)
			})
		}
		servers = append(servers, srv)
		err = mgr.AddServer(id, devices.Capacity(), []string{w0.Model.Name}, func() fleet.Signals {
			return fleet.Signals{
				QueueDepth: srv.scheduler.QueueDepth(),
				UsedBytes:  srv.devices.Used(),
				Admission:  fleet.AdmissionState(srv.scheduler.AdmissionState()),
			}
		})
		if err != nil {
			return nil, err
		}
		if n := mgr.ActiveServers(); n > peakServers {
			peakServers = n
		}
		return srv, nil
	}
	for s := 0; s < cfg.Servers; s++ {
		if _, err := newServer(); err != nil {
			return nil, err
		}
	}

	// Profiling phase (§3.3): the server measures each client's
	// forward and backward memory demands before serving. In the
	// simulation the profiler is the analytic model; the real runtime
	// measures instantiated caches. The fleet placer packs against the
	// same prediction (persistent state plus the largest transient
	// peak).
	demands := make(map[string]struct{ fwd, bwd int64 }, len(cfg.Clients))
	for _, cl := range cfg.Clients {
		d := struct{ fwd, bwd int64 }{
			fwd: cl.Workload.NoGradForwardBytes(),
			bwd: cl.Workload.BackwardPeakBytes(),
		}
		switch cfg.Policy {
		case PolicyReleaseOnWait:
			d.fwd = cl.Workload.ActivationBytes()
		case PolicyPreserve, PolicyPersistAll:
			d.fwd = cl.Workload.ActivationBytes()
			d.bwd = 0 // memory held since forward
		}
		demands[cl.ID] = d
	}
	infoOf := func(cl ClientSpec) fleet.ClientInfo {
		d := demands[cl.ID]
		peak := d.fwd
		if d.bwd > peak {
			peak = d.bwd
		}
		return fleet.ClientInfo{
			ID:                 cl.ID,
			BaseModel:          cl.Workload.Model.Name,
			PersistentBytes:    cl.Workload.PersistentClientBytes(),
			TransientPeakBytes: peak,
		}
	}

	// admitClient physically lands a client's persistent state on srv:
	// device memory plus a scheduler reservation, so the schedulable
	// budget shrinks exactly as the historical post-persist budget did.
	admitClient := func(srv *serverSim, ci fleet.ClientInfo) error {
		if _, err := srv.devices.Alloc("persist:"+ci.ID, ci.PersistentBytes); err != nil {
			return fmt.Errorf("client %q persistent state: %w", ci.ID, err)
		}
		if err := srv.scheduler.Reserve("persist:"+ci.ID, ci.PersistentBytes); err != nil {
			srv.devices.FreeOwner("persist:" + ci.ID)
			return fmt.Errorf("client %q persistent state: %w", ci.ID, err)
		}
		if ci.TransientPeakBytes > srv.maxDemand {
			srv.maxDemand = ci.TransientPeakBytes
		}
		return nil
	}
	// canAdmit is the dynamic-arrival feasibility gate: after reserving
	// the persistent state, the schedulable budget must still fit both
	// the newcomer's and every resident's transient peak, or someone's
	// Submit would fail ErrNeverFits and stall forever.
	canAdmit := func(srv *serverSim, ci fleet.ClientInfo) bool {
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

	// Static fleets place every client up front in arrival order — the
	// admission-time decision of a deployment where the roster is known
	// — which with RoundRobin reproduces the historical assignment
	// exactly. Autoscaled fleets place each client when it arrives (see
	// the client process below).
	if cfg.Autoscale == nil {
		for _, cl := range cfg.Clients {
			ci := infoOf(cl)
			id, err := mgr.Place(ci)
			if err != nil {
				return nil, err
			}
			if err := admitClient(servers[id], ci); err != nil {
				return nil, err
			}
		}
	}
	var persistent int64
	if cfg.Autoscale == nil {
		for _, srv := range servers {
			persistent += srv.devices.Used()
		}
	}

	results := make([]ClientResult, len(cfg.Clients))
	for i := range cfg.Clients {
		results[i] = ClientResult{ID: cfg.Clients[i].ID, Breakdown: &trace.Breakdown{}}
	}
	var waits WaitStats
	var rejected int64 // admission sheds; kernel is single-threaded
	var hiddenTotal time.Duration

	// Wire-plane instrumentation mirrors the TCP runtime's families
	// (docs/WIRE.md): compressed counts the on-wire bytes of quantized
	// payloads, raw the fp32 bytes they replaced, and the overlap
	// histogram observes per-iteration hidden time in virtual seconds.
	// All handles are nil-safe, so an uninstrumented run pays nothing.
	wireCompressed := cfg.Metrics.Counter(obs.MetricWireCompressedBytes, "On-wire bytes of compressed activation payloads (simulated).")
	wireRaw := cfg.Metrics.Counter(obs.MetricWireRawBytes, "fp32 bytes the compressed payloads replaced (simulated).")
	hiddenHist := cfg.Metrics.Histogram(obs.MetricOverlapHiddenSeconds, obs.DurationBuckets(), "Per-iteration virtual time hidden by comm/compute overlap.")
	var samples []MemSample
	sampleMem := func(at time.Duration) {
		var used int64
		for _, srv := range servers {
			// Transient scheduled memory: the schedulable budget minus
			// what is still free (persistent reservations cancel out).
			used += srv.scheduler.Schedulable() - srv.scheduler.Available()
		}
		// Coalesce same-instant transitions: keep the last value.
		if n := len(samples); n > 0 && samples[n-1].At == at {
			samples[n-1].Bytes = used
			return
		}
		samples = append(samples, MemSample{At: at, Bytes: used})
	}
	recordWait := func(kind sched.RequestKind, d time.Duration) {
		if kind == sched.KindForward {
			waits.ForwardTotal += d
			waits.Forwards++
		} else {
			waits.BackwardTotal += d
			waits.Backwards++
		}
	}

	// shed books one admission shed against every client it turned
	// away: the one submitting, or each member of a shed batch.
	shed := func(ids ...string) {
		rejected += int64(len(ids))
		for _, id := range ids {
			ledger.Retry(id)
		}
		if cfg.Flight != nil {
			cfg.Flight.Trigger(obs.FlightReasonShed)
		}
	}

	// Batched server phases (docs/BATCHING.md): compatible forward and
	// backward requests coalesce into one kernel invocation, formed in
	// virtual time under the same policy and metrics the wall-clock
	// engine (internal/batch) uses. Nil when batching is disabled, which
	// leaves the serial path — and its virtual-time trace — untouched.
	var batcher *simBatcher
	if cfg.Batch != nil && cfg.Batch.Enabled() {
		pol := cfg.Batch.WithDefaults()
		bm := batch.NewMetrics(cfg.Metrics, ledger, pol.MaxSize)
		batcher = newSimBatcher(kernel, pol, bm, shed, sampleMem)
	}

	// Fleet dynamics state (autoscaled runs only). The kernel is
	// single-threaded, so plain variables suffice.
	remaining := len(cfg.Clients)
	pendingPlace := 0
	var fleetErr error
	failFleet := func(err error) {
		if fleetErr == nil {
			fleetErr = err
		}
	}
	// decommission retires a drained server once its last client left:
	// base copy and manager context are freed, the scheduler closed,
	// and the server leaves the fleet bookkeeping.
	decommission := func(srv *serverSim) {
		if !srv.draining || srv.removed || mgr.ClientCount(srv.id) > 0 {
			return
		}
		if err := mgr.Remove(srv.id); err != nil {
			failFleet(err)
			return
		}
		srv.removed = true
		srv.scheduler.Close()
		srv.devices.FreeOwner("base-model")
		srv.devices.FreeOwner("manager")
	}

	if cfg.Autoscale != nil {
		as := fleet.NewAutoscaler(*cfg.Autoscale)
		interval := as.Config().Interval
		var tick func()
		tick = func() {
			if remaining == 0 || fleetErr != nil {
				return // last client done: let the kernel run dry
			}
			switch as.Decide(kernel.Now(), pendingPlace, mgr.Loads()) {
			case fleet.ScaleUp:
				if _, err := newServer(); err != nil {
					failFleet(fmt.Errorf("fleet scale-up: %w", err))
					return
				}
				mgr.RecordScaleEvent()
			case fleet.ScaleDown:
				if id, ok := mgr.DrainCandidate(); ok {
					if err := mgr.Drain(id); err != nil {
						failFleet(err)
						return
					}
					servers[id].draining = true
					mgr.RecordScaleEvent()
					decommission(servers[id])
				}
			}
			kernel.After(interval, tick)
		}
		kernel.After(interval, tick)
	}

	for i, cl := range cfg.Clients {
		cl := cl
		i := i
		ci := infoOf(cl)
		bd := results[i].Breakdown
		cost := costmodel.New(cfg.ServerPerf, cl.Workload)
		clientTotal := costmodel.ClientComputeTime(cl.Platform, cl.Workload)
		pre, mid, post := clientPhases(clientTotal)
		demand := demands[cl.ID]
		// The wire codec shrinks every split-boundary transfer to its
		// ratio of the fp32 volume (per-row scale overhead dropped; see
		// quant.Codec.WireRatio). Grant sizes are untouched: compression
		// changes what crosses the link, not what the GPU materializes.
		rawTransfer := cl.Workload.TransferBytes()
		transfer := rawTransfer
		if cfg.WireCodec != quant.CodecFP32 {
			transfer = int64(float64(rawTransfer) * cfg.WireCodec.WireRatio())
		}
		// Release-overhead concurrency: clients per GPU on this
		// client's server (allocator fragmentation is per-device). For
		// a static fleet the roster is fixed, so the density is too;
		// autoscaled runs recompute it per iteration.
		var srv *serverSim
		var staticRelease time.Duration
		if cfg.Autoscale == nil {
			id, _ := mgr.ServerOf(cl.ID)
			srv = servers[id]
			density := (mgr.ClientCount(id) + cfg.GPUs - 1) / cfg.GPUs
			staticRelease = cost.ReleaseOverhead(density)
		}

		kernel.Spawn("client:"+cl.ID, func(p *sim.Proc) {
			defer func() { remaining-- }()
			var scheduler *sched.Scheduler
			if srv != nil {
				scheduler = srv.scheduler
			}
			// Every accumulator update below also records a span with
			// identical virtual-time bounds, so summing spans by
			// category reconstructs the Breakdown exactly (the bench's
			// -trace-out parity check relies on this).
			// tid is the current iteration's trace ID — the same
			// obs.IterTraceID(clientID, iter) a TCP client stamps on its
			// wire requests, so simulated and real traces of one workload
			// correlate by identical IDs.
			var tid uint64
			var comm, comp, schedT time.Duration
			compOn := func(q *sim.Proc, name string, d time.Duration) {
				start := q.Now()
				q.Sleep(d)
				comp += d
				cfg.Tracer.RecordT(cl.ID, name, "compute", tid, start, d)
				// Server-side phases bill the tenant's compute-seconds;
				// the client-local sections ("client-*") are the
				// client's own hardware, not shared-server time.
				if !strings.HasPrefix(name, "client-") {
					ledger.AddCompute(cl.ID, d.Seconds())
				}
			}
			sleepComp := func(name string, d time.Duration) { compOn(p, name, d) }
			// clientSeg is a client-local compute segment in its inline
			// position; overlapped, the iteration's side process runs it
			// instead (see the iteration loop).
			clientSeg := func(name string, d time.Duration) {
				if !cfg.Overlap {
					sleepComp(name, d)
				}
			}
			computeDone, joined := false, kernel.NewSignal() // side-process join state
			xfer := func(name string) {
				start := p.Now()
				d := link.Transfer(p, transfer)
				comm += d
				cfg.Tracer.RecordT(cl.ID, name, "comm", tid, start, d)
				// Wire accounting from the server's viewpoint: an upload
				// is bytes the server received, a download bytes it sent.
				if strings.HasPrefix(name, "upload:") {
					ledger.AddWire(cl.ID, 0, transfer)
				} else {
					ledger.AddWire(cl.ID, transfer, 0)
				}
				if cfg.WireCodec != quant.CodecFP32 {
					wireCompressed.Add(transfer)
					wireRaw.Add(rawTransfer)
				}
			}
			grant := func(kind sched.RequestKind, bytes int64) {
				start := p.Now()
				err := awaitGrant(p, "memory grant "+cl.ID, i%8, func() { shed(cl.ID) },
					func(grant func()) error { return scheduler.Submit(cl.ID, kind, bytes, grant) })
				if err != nil {
					// Requests that can never fit stall the client
					// forever; the deadlock detector will surface it with
					// this reason.
					kernel.NewSignal().Wait(p, fmt.Sprintf("unschedulable: %v", err))
				}
				// The recorded wait spans all attempts and backoffs, plus
				// the fixed scheduler decision cost, which does not
				// advance virtual time; the span is kept equal to what
				// the Breakdown records.
				d := p.Now() - start + costmodel.SchedulerDecisionTime
				recordWait(kind, d)
				sampleMem(p.Now())
				schedT += d
				cfg.Tracer.RecordT(cl.ID, "wait:"+kind.String(), "sched", tid, start, d)
			}
			release := func() {
				scheduler.Complete(cl.ID)
				sampleMem(p.Now())
			}
			// batchPhase runs one server phase through the batcher
			// instead of grant/sleep/release: the member parks until its
			// batch executes, then bills its share — grant wait and
			// residency stall into the sched bucket, its row share of the
			// batched kernel into compute (so Σ clients' compute equals
			// the device time actually spent). Returns false on a fatal
			// scheduling error.
			batchPhase := func(kind sched.RequestKind, name string, bytes int64, dur, rel time.Duration) bool {
				start := p.Now()
				m := &simMember{
					id:      cl.ID,
					bytes:   bytes,
					rows:    int64(cl.Workload.Batch),
					dur:     dur,
					release: rel,
				}
				key := batch.Key{Cut: cl.Workload.Cut, Seq: cl.Workload.Seq, Kind: kind}
				if err := batcher.run(p, srv, key, m); err != nil {
					failFleet(fmt.Errorf("client %q: %v", cl.ID, err))
					return false
				}
				recordWait(kind, m.wait)
				schedT += m.wait + m.stall
				comp += m.compute
				cfg.Tracer.RecordT(cl.ID, "wait:"+kind.String(), "sched", tid, start, m.wait)
				grantAt := start + m.wait - costmodel.SchedulerDecisionTime
				cfg.Tracer.RecordT(cl.ID, name, "compute", tid, grantAt, m.compute)
				if m.stall > 0 {
					cfg.Tracer.RecordT(cl.ID, "batch-stall", "sched", tid, grantAt+m.compute, m.stall)
				}
				ledger.AddCompute(cl.ID, m.compute.Seconds())
				return true
			}
			if cl.StartDelay > 0 {
				p.Sleep(cl.StartDelay)
			}

			// Autoscaled fleets place the client at arrival. When no
			// server can physically admit it yet, the client backs off
			// and retries; the pending count is the autoscaler's
			// strongest grow signal.
			if cfg.Autoscale != nil {
				placed := false
				counted := false
				for attempt := 0; attempt < placementAttempts; attempt++ {
					id, err := mgr.Place(ci)
					if err == nil {
						cand := servers[id]
						if canAdmit(cand, ci) && admitClient(cand, ci) == nil {
							srv = cand
							scheduler = cand.scheduler
							placed = true
							break
						}
						mgr.Unplace(cl.ID)
					}
					if !counted {
						pendingPlace++
						counted = true
					}
					p.Sleep(placementRetry + placementRetry*time.Duration(i%8)/8)
				}
				if counted {
					pendingPlace--
				}
				if !placed {
					failFleet(fmt.Errorf("client %q: no server could admit it after %d attempts", cl.ID, placementAttempts))
					return
				}
			}
			// migrate follows a fleet decision to move this client:
			// release everything held here, ship the persistent state,
			// re-admit on the target. Runs only between iterations, so
			// the only held grant is PolicyPersistAll's session grant.
			migrate := func(p *sim.Proc, dst *serverSim) bool {
				start := p.Now()
				old := srv
				old.scheduler.Complete(cl.ID)
				old.scheduler.Complete("persist:" + cl.ID)
				old.devices.FreeOwner("persist:" + ci.ID)
				for attempt := 0; ; attempt++ {
					if err := admitClient(dst, ci); err == nil {
						break
					}
					if attempt >= placementAttempts {
						failFleet(fmt.Errorf("client %q: migration to server %d failed after %d attempts", cl.ID, dst.id, placementAttempts))
						return false
					}
					// Target memory still held by in-flight grants:
					// wait for them to complete.
					p.Sleep(placementRetry)
				}
				p.Sleep(migrationTime(ci.PersistentBytes))
				d := p.Now() - start
				schedT += d
				cfg.Tracer.RecordT(cl.ID, "migrate", "sched", tid, start, d)
				sampleMem(p.Now())
				srv = dst
				scheduler = dst.scheduler
				decommission(old)
				return true
			}

			persisted := false
			for iter := 0; iter < cfg.Iterations; iter++ {
				tid = obs.IterTraceID(cl.ID, iter)
				comm, comp, schedT = 0, 0, 0

				// Fleet rebalance check (autoscaled runs): evacuate a
				// draining server, or follow a strictly better
				// placement.
				if cfg.Autoscale != nil && iter > 0 {
					target, moved, err := mgr.Rebalance(ci, func(id int) bool {
						return canAdmit(servers[id], ci)
					})
					if err != nil {
						failFleet(err)
						return
					}
					if moved {
						if !migrate(p, servers[target]) {
							return
						}
						persisted = false
					}
				}
				releaseCost := staticRelease
				if cfg.Autoscale != nil {
					density := (mgr.ClientCount(srv.id) + cfg.GPUs - 1) / cfg.GPUs
					releaseCost = cost.ReleaseOverhead(density)
				}

				// Overlapped iteration (docs/WIRE.md): the client-local
				// compute runs as its own process, concurrent with the
				// wire+server leg below, modeling the steady state of the
				// double-buffered microbatch pipeline — each client
				// segment of microbatch i+1 hides under the transfers and
				// server phases of microbatch i, so the iteration's wall
				// time is the slower leg (costmodel.OverlapStepTime), not
				// the serial sum. The Breakdown still records serial
				// totals (comm, comp, sched are resource costs, not wall
				// time); the savings show up in SimulatedTime and the
				// hidden-time histogram. Only the validated envelope
				// (on-demand policy, serial serving, static fleet) sets
				// Overlap; the clientSeg calls below are then no-ops.
				iterStart := p.Now()
				if cfg.Overlap {
					computeDone = false
					kernel.Spawn(fmt.Sprintf("client:%s:compute:%d", cl.ID, iter), func(q *sim.Proc) {
						compOn(q, "client-pre", pre)
						compOn(q, "client-mid", mid)
						compOn(q, "client-post", post)
						computeDone = true
						joined.Fire()
					})
				}

				// Client computes the input section and uploads x_c.
				clientSeg("client-pre", pre)
				xfer("upload:x_c")

				// ---- Server: forward request ----
				switch cfg.Policy {
				case PolicyPersistAll:
					// Reserve once, on the first iteration, forever.
					if !persisted {
						grant(sched.KindForward, demand.fwd)
						persisted = true
					}
					sleepComp("forward", cost.ForwardTime(cl.Workload))
				case PolicyPreserve, PolicyReleaseOnWait:
					grant(sched.KindForward, demand.fwd)
					sleepComp("forward", cost.ForwardTime(cl.Workload))
					if cfg.Policy == PolicyReleaseOnWait {
						release()
						sleepComp("release", releaseCost/2)
					}
					// PolicyPreserve: memory stays allocated through
					// the gradient wait.
				default: // PolicyOnDemand, Fig. 3(d)
					if batcher != nil {
						if !batchPhase(sched.KindForward, "forward", demand.fwd,
							cost.NoGradForwardTime(cl.Workload), 0) {
							return
						}
					} else {
						grant(sched.KindForward, demand.fwd)
						sleepComp("forward", cost.NoGradForwardTime(cl.Workload))
						release()
					}
				}

				// Server returns x_s; client runs the output section,
				// computes the loss, and uploads g_c.
				xfer("download:x_s")
				clientSeg("client-mid", mid)
				xfer("upload:g_c")

				// ---- Server: backward request ----
				switch cfg.Policy {
				case PolicyPersistAll:
					sleepComp("backward", cost.BackwardTime(cl.Workload))
				case PolicyPreserve:
					sleepComp("backward", cost.BackwardTime(cl.Workload))
					release()
					sleepComp("release", releaseCost)
				case PolicyReleaseOnWait:
					grant(sched.KindBackward, demand.bwd)
					sleepComp("backward", cost.ForwardTime(cl.Workload)+cost.BackwardTime(cl.Workload))
					release()
					sleepComp("release", releaseCost/2)
				default: // PolicyOnDemand
					if batcher != nil {
						// Re-forward + backward, batched; the release/
						// re-collection cycle happens once per batch
						// inside the leader, not once per client.
						if !batchPhase(sched.KindBackward, "re-forward+backward", demand.bwd,
							cost.ForwardTime(cl.Workload)+cost.BackwardTime(cl.Workload), releaseCost) {
							return
						}
					} else {
						grant(sched.KindBackward, demand.bwd)
						// Re-forward + backward.
						sleepComp("re-forward+backward",
							cost.ForwardTime(cl.Workload)+cost.BackwardTime(cl.Workload))
						release()
						// Releasing and re-collecting fragmented memory
						// happens after the grant is returned (Table 2's
						// growing overhead).
						sleepComp("release", releaseCost)
					}
				}
				sleepComp("optimizer", costmodel.OptimizerStepTime)

				// Server returns g_s; client finishes its backward and
				// optimizer step.
				xfer("download:g_s")
				clientSeg("client-post", post)
				if cfg.Overlap {
					for !computeDone {
						joined.Wait(p, "overlap join "+cl.ID)
					}
					if hidden := comm + comp + schedT - (p.Now() - iterStart); hidden > 0 {
						hiddenTotal += hidden
						hiddenHist.Observe(hidden.Seconds())
					}
				}

				bd.Add(comm, comp, schedT)
				ledger.AddIteration(cl.ID)
			}

			// Autoscaled clients depart when done: persistent state
			// leaves the server (offloaded host-side), which lets a
			// draining server finish emptying. Static runs keep the
			// historical semantics — state held until the run ends.
			if cfg.Autoscale != nil {
				scheduler.Complete(cl.ID)
				scheduler.Complete("persist:" + cl.ID)
				srv.devices.FreeOwner("persist:" + cl.ID)
				mgr.Depart(cl.ID)
				sampleMem(p.Now())
				decommission(srv)
			}
		})
	}

	if err := kernel.Run(); err != nil {
		return nil, fmt.Errorf("menos simulation: %w", err)
	}
	if fleetErr != nil {
		return nil, fmt.Errorf("menos fleet: %w", fleetErr)
	}
	if cfg.Autoscale != nil {
		for _, srv := range servers {
			if !srv.removed {
				persistent += srv.devices.Used()
			}
		}
	}

	agg := &trace.Breakdown{}
	for _, r := range results {
		agg.Merge(r.Breakdown)
	}
	var schedStats sched.Stats
	var admission sched.AdmissionStats
	for _, srv := range servers {
		st := srv.scheduler.Stats()
		schedStats.Submitted += st.Submitted
		schedStats.Granted += st.Granted
		schedStats.Backfilled += st.Backfilled
		schedStats.Completed += st.Completed
		schedStats.Decisions += st.Decisions
		schedStats.DecisionTime += st.DecisionTime
		if st.MaxQueueDepth > schedStats.MaxQueueDepth {
			schedStats.MaxQueueDepth = st.MaxQueueDepth
		}
		ast := srv.scheduler.AdmissionStats()
		admission.Transitions += ast.Transitions
		admission.Shed += ast.Shed
		admission.Deferred += ast.Deferred
		if ast.State > admission.State {
			admission.State = ast.State
		}
		if ast.P99 > admission.P99 {
			admission.P99 = ast.P99
		}
	}
	fstats := mgr.Stats()
	return &Result{
		Mode:            ModeMenos,
		Clients:         results,
		Aggregate:       agg,
		PersistentBytes: persistent,
		PeakBytes:       persistent + peakTransient(cfg, demands),
		SchedStats:      schedStats,
		Rejected:        rejected,
		Admission:       admission,
		Waits:           waits,
		MemSamples:      samples,
		OverlapHidden:   hiddenTotal,
		SimulatedTime:   kernel.Now(),
		Fleet: FleetStats{
			Policy:         placer.Name(),
			StartServers:   cfg.Servers,
			FinalServers:   mgr.ActiveServers(),
			PeakServers:    peakServers,
			Placements:     fstats.Placements,
			Migrations:     fstats.Migrations,
			ScaleEvents:    fstats.ScaleEvents,
			ImbalanceRatio: mgr.Imbalance(),
		},
	}, nil
}

// awaitGrant submits one scheduling request — submit wraps Submit or
// SubmitBatch — and parks p until it is granted. An admission shed runs
// onShed, backs off for the controller's hint and resubmits, exactly
// like a real client; the backoff is jittered deterministically
// (jitter in [0,8)) so shed clients do not resubmit in a synchronized
// herd. Any other error can never be granted and is returned.
func awaitGrant(p *sim.Proc, reason string, jitter int, onShed func(), submit func(grant func()) error) error {
	granted := false
	sig := p.Kernel().NewSignal()
	for {
		err := submit(func() {
			granted = true
			sig.Fire()
		})
		if err == nil {
			break
		}
		var ov *sched.OverloadError
		if !errors.As(err, &ov) {
			return err
		}
		onShed()
		p.Sleep(ov.RetryAfter + ov.RetryAfter*time.Duration(jitter)/8)
	}
	for !granted {
		sig.Wait(p, reason)
	}
	return nil
}

// peakTransient estimates the transient memory above the persistent
// floor: the largest single backward footprint that can be in flight.
func peakTransient(cfg Config, demands map[string]struct{ fwd, bwd int64 }) int64 {
	var maxBwd int64
	for _, d := range demands {
		b := d.bwd
		if b == 0 {
			b = d.fwd
		}
		if b > maxBwd {
			maxBwd = b
		}
	}
	return maxBwd
}
