package splitsim

import (
	"testing"
	"time"

	"menos/internal/costmodel"
	"menos/internal/gpu"
	"menos/internal/memmodel"
	"menos/internal/simnet"
)

func menosCfg(n int, w memmodel.Workload) Config {
	return Config{
		Mode:       ModeMenos,
		Clients:    HomogeneousClients(n, w, costmodel.ClientGPUPerf()),
		Iterations: 8,
	}
}

func vanillaCfg(n int, w memmodel.Workload) Config {
	return Config{
		Mode:       ModeVanilla,
		Clients:    HomogeneousClients(n, w, costmodel.ClientGPUPerf()),
		Iterations: 8,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Mode: Mode(9), Clients: HomogeneousClients(1, memmodel.PaperOPTWorkload(), costmodel.ClientGPUPerf())}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := Run(Config{Mode: ModeMenos}); err == nil {
		t.Fatal("no clients accepted")
	}
	mixed := menosCfg(2, memmodel.PaperOPTWorkload())
	mixed.Clients[1].Workload = memmodel.PaperLlamaWorkload()
	if _, err := Run(mixed); err == nil {
		t.Fatal("mixed base models accepted")
	}
	noID := menosCfg(1, memmodel.PaperOPTWorkload())
	noID.Clients[0].ID = ""
	if _, err := Run(noID); err == nil {
		t.Fatal("empty client id accepted")
	}
}

func TestModeAndPolicyStrings(t *testing.T) {
	if ModeMenos.String() != "menos" || ModeVanilla.String() != "vanilla" {
		t.Fatal("mode strings")
	}
	for _, p := range []MemPolicy{PolicyOnDemand, PolicyReleaseOnWait, PolicyPreserve, PolicyPersistAll} {
		if p.String() == "" {
			t.Fatal("policy string empty")
		}
	}
	if Mode(0).String() == "" || MemPolicy(0).String() == "" {
		t.Fatal("unknown strings")
	}
}

// TestDeterminism: identical configs produce identical results.
func TestDeterminism(t *testing.T) {
	a := run(t, menosCfg(3, memmodel.PaperOPTWorkload()))
	b := run(t, menosCfg(3, memmodel.PaperOPTWorkload()))
	if a.AvgIterationTime() != b.AvgIterationTime() {
		t.Fatalf("non-deterministic: %v vs %v", a.AvgIterationTime(), b.AvgIterationTime())
	}
	if a.SimulatedTime != b.SimulatedTime {
		t.Fatalf("non-deterministic end time: %v vs %v", a.SimulatedTime, b.SimulatedTime)
	}
}

// TestMenosOPTIterationTimes reproduces Fig. 6(a)'s Menos series: ≈7 s
// at 1 client, degrading only mildly to ≈8.7 s at 6 clients.
func TestMenosOPTIterationTimes(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	one := run(t, menosCfg(1, w)).AvgIterationTime()
	six := run(t, menosCfg(6, w)).AvgIterationTime()
	if one < 5*time.Second || one > 9*time.Second {
		t.Fatalf("1 client = %v, paper ≈7 s", one)
	}
	if six < one {
		t.Fatalf("6 clients (%v) faster than 1 (%v)", six, one)
	}
	if six > 12*time.Second {
		t.Fatalf("6 clients = %v, paper ≈8.7 s", six)
	}
}

// TestVanillaOPTDegradesAtFourClients reproduces Fig. 6(a)'s vanilla
// series: fine up to 3 clients (the V100 fits 3 replicas), then
// swapping drives iteration time up steeply.
func TestVanillaOPTDegradesAtFourClients(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	three := run(t, vanillaCfg(3, w))
	six := run(t, vanillaCfg(6, w))
	if three.Aggregate.AvgSched() > time.Second {
		t.Fatalf("3 vanilla clients already queueing: %v", three.Aggregate.AvgSched())
	}
	if three.AvgIterationTime() > 9*time.Second {
		t.Fatalf("3 clients = %v, paper ≈7 s", three.AvgIterationTime())
	}
	if six.AvgIterationTime() < 12*time.Second {
		t.Fatalf("6 clients = %v, paper ≈18.2 s (swapping)", six.AvgIterationTime())
	}
}

// TestVanillaLlamaCollapsesAtTwoClients reproduces Fig. 6(b): one V100
// holds a single Llama replica, so two vanilla clients already swap
// ≈25 GB per turn (3.7 s → 63.1 s in the paper).
func TestVanillaLlamaCollapsesAtTwoClients(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	one := run(t, vanillaCfg(1, w))
	two := run(t, vanillaCfg(2, w))
	if one.AvgIterationTime() > 6*time.Second {
		t.Fatalf("1 client = %v, paper ≈3.7 s", one.AvgIterationTime())
	}
	if two.AvgIterationTime() < 25*time.Second {
		t.Fatalf("2 clients = %v, paper ≈63 s", two.AvgIterationTime())
	}
	if two.Aggregate.AvgSched() < 20*time.Second {
		t.Fatalf("2-client sched time = %v, paper ≈39.9 s", two.Aggregate.AvgSched())
	}
}

// TestMenosLlamaStaysFast reproduces Fig. 6(b)'s Menos series: 4.7 s →
// 6.0 s from 1 to 4 clients.
func TestMenosLlamaStaysFast(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	one := run(t, menosCfg(1, w)).AvgIterationTime()
	four := run(t, menosCfg(4, w)).AvgIterationTime()
	if one < 3*time.Second || one > 7*time.Second {
		t.Fatalf("1 client = %v, paper ≈4.7 s", one)
	}
	if four > 9*time.Second {
		t.Fatalf("4 clients = %v, paper ≈6.0 s", four)
	}
	if four < one {
		t.Fatalf("4 clients (%v) faster than 1 (%v)", four, one)
	}
}

// TestMenosBeatsVanillaUnderPressure is the headline Fig. 6 claim.
func TestMenosBeatsVanillaUnderPressure(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	menos := run(t, menosCfg(4, w)).AvgIterationTime()
	vanilla := run(t, vanillaCfg(4, w)).AvgIterationTime()
	if float64(vanilla) < 5*float64(menos) {
		t.Fatalf("vanilla %v not >> menos %v (paper: 154.4 s vs 6.0 s)", vanilla, menos)
	}
}

// TestMenosSchedulingTimesTiny reproduces Table 3's Menos rows:
// scheduling stays sub-second even for Llama at 4 clients.
func TestMenosSchedulingTimesTiny(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	r := run(t, menosCfg(4, w))
	if s := r.Aggregate.AvgSched(); s > 1500*time.Millisecond {
		t.Fatalf("menos sched = %v, paper ≈0.38 s", s)
	}
	// OPT never queues at all in our settings.
	rOPT := run(t, menosCfg(6, memmodel.PaperOPTWorkload()))
	if s := rOPT.Aggregate.AvgSched(); s > 200*time.Millisecond {
		t.Fatalf("menos OPT sched = %v, paper ≈0.0001 s", s)
	}
}

// TestPreservePolicyQueues reproduces Fig. 7: holding activations
// through the gradient wait starves concurrent clients; on-demand does
// not.
func TestPreservePolicyQueues(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	onDemand := menosCfg(4, w)
	preserve := menosCfg(4, w)
	preserve.Policy = PolicyPreserve
	od := run(t, onDemand)
	pr := run(t, preserve)
	if pr.Aggregate.AvgSched() < 3*od.Aggregate.AvgSched() {
		t.Fatalf("preserve sched %v not >> on-demand %v (paper: ~10 s vs 0.38 s)",
			pr.Aggregate.AvgSched(), od.Aggregate.AvgSched())
	}
}

// TestPersistAllRunsOutOfMemory: Fig. 3(a) with 4 Llama clients wants
// 4 activation sets resident forever; they fit on one V100 only
// because activations are ≈4.6 GB — but at 8 clients they cannot, and
// the simulation reports the stall as an error rather than deadlocking
// silently.
func TestPersistAllCapacity(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	cfg := menosCfg(8, w)
	cfg.Policy = PolicyPersistAll
	cfg.Iterations = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("8 persist-all Llama clients fit on one V100")
	}
}

// TestTooManyClientsPersistentOOM: Menos' own limit — per-client
// contexts eventually exhaust memory, reported as a config error.
func TestTooManyClientsPersistentOOM(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	cfg := menosCfg(20, w)
	if _, err := Run(cfg); err == nil {
		t.Fatal("20 Llama clients' persistent state fit on one V100")
	}
}

// TestMultiGPUHelps reproduces Fig. 10: 10 CPU clients crawl on one
// GPU but run close to baseline speed on four.
func TestMultiGPUHelps(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	base := Config{
		Mode:       ModeMenos,
		Clients:    HomogeneousClients(2, w, costmodel.ClientCPUPerf()),
		Iterations: 6,
	}
	twoClients := run(t, base).AvgIterationTime()

	oneGPU := base
	oneGPU.Clients = HomogeneousClients(10, w, costmodel.ClientCPUPerf())
	t10g1 := run(t, oneGPU).AvgIterationTime()

	fourGPU := oneGPU
	fourGPU.GPUs = 4
	t10g4 := run(t, fourGPU).AvgIterationTime()

	if t10g1 <= twoClients {
		t.Fatalf("10 clients on 1 GPU (%v) not slower than 2 clients (%v)", t10g1, twoClients)
	}
	if t10g4 >= t10g1 {
		t.Fatalf("4 GPUs (%v) not faster than 1 GPU (%v)", t10g4, t10g1)
	}
	// Paper: 11.2 s → 6.6 s; shape: 4 GPUs recover most of the loss.
	if float64(t10g4) > 0.8*float64(t10g1) {
		t.Fatalf("4 GPUs recover too little: %v vs %v", t10g4, t10g1)
	}
}

// TestCPUClientsOnlySlightlySlower reproduces Fig. 10's observation
// that client hardware barely matters (most compute is server-side).
func TestCPUClientsOnlySlightlySlower(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	gpuClients := run(t, menosCfg(2, w)).AvgIterationTime()
	cpuCfg := menosCfg(2, w)
	for i := range cpuCfg.Clients {
		cpuCfg.Clients[i].Platform = costmodel.ClientCPUPerf()
	}
	cpuClients := run(t, cpuCfg).AvgIterationTime()
	delta := cpuClients - gpuClients
	if delta <= 0 {
		t.Fatalf("CPU clients (%v) not slower than GPU clients (%v)", cpuClients, gpuClients)
	}
	if delta > 2*time.Second {
		t.Fatalf("CPU penalty %v, paper observed ≈0.8 s", delta)
	}
}

// TestCommunicationTimesFlat reproduces Table 1: communication is
// roughly constant in the client count and dominates when memory
// suffices.
func TestCommunicationTimesFlat(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	c1 := run(t, menosCfg(1, w)).Aggregate.AvgComm()
	c6 := run(t, menosCfg(6, w)).Aggregate.AvgComm()
	if c1 < 5*time.Second || c1 > 8*time.Second {
		t.Fatalf("comm @1 = %v, paper ≈6.4 s", c1)
	}
	ratio := float64(c6) / float64(c1)
	if ratio > 1.3 || ratio < 0.8 {
		t.Fatalf("comm not flat: %v -> %v", c1, c6)
	}
}

// TestComputationGrowsWithClients reproduces Table 2: Menos compute
// rises with client count (re-forward + release overhead) while
// vanilla stays flat.
func TestComputationGrowsWithClients(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	m1 := run(t, menosCfg(1, w)).Aggregate.AvgComp()
	m4 := run(t, menosCfg(4, w)).Aggregate.AvgComp()
	if m4 <= m1 {
		t.Fatalf("menos compute flat: %v -> %v", m1, m4)
	}
	v1 := run(t, vanillaCfg(1, w)).Aggregate.AvgComp()
	v4 := run(t, vanillaCfg(4, w)).Aggregate.AvgComp()
	spread := float64(v4) / float64(v1)
	if spread > 1.25 {
		t.Fatalf("vanilla compute not flat: %v -> %v", v1, v4)
	}
	if m1 <= v1 {
		t.Fatalf("menos compute (%v) not above vanilla (%v), paper shows re-forward cost", m1, v1)
	}
}

// TestSchedulerStatsExposed: backfilling actually happens when
// backwards and forwards mix under memory pressure.
func TestSchedulerStatsExposed(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	r := run(t, menosCfg(4, w))
	if r.SchedStats.Granted == 0 {
		t.Fatal("no grants recorded")
	}
	if r.SchedStats.Submitted < int64(4*8) {
		t.Fatalf("submitted = %d", r.SchedStats.Submitted)
	}
}

// TestPersistentMemoryComparison mirrors Fig. 5 out of the running
// system (not just the formulas): Menos' device residency beats
// vanilla's replica sum.
func TestPersistentMemoryComparison(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	menos := run(t, menosCfg(4, w))
	vanilla := run(t, vanillaCfg(4, w))
	if menos.PersistentBytes >= vanilla.PersistentBytes {
		t.Fatalf("menos persistent %d not below vanilla %d",
			menos.PersistentBytes, vanilla.PersistentBytes)
	}
	saving := 1 - float64(menos.PersistentBytes)/float64(vanilla.PersistentBytes)
	if saving < 0.6 {
		t.Fatalf("saving = %.2f, paper ≈0.72", saving)
	}
}

// TestPeakNeverExceedsCapacity: the device set must never report a
// peak above its capacity under Menos' admission control, and the peak
// it reports is the run's sampled high-water mark.
func TestPeakNeverExceedsCapacity(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	r := run(t, menosCfg(6, w))
	if r.PeakBytes > gpu.V100().MemoryBytes {
		t.Fatalf("peak %d exceeds V100 capacity", r.PeakBytes)
	}
	if want := r.PersistentBytes + r.PeakTransientBytes(); r.PeakBytes != want {
		t.Fatalf("peak %d, want persistent %d + sampled transient peak %d = %d",
			r.PeakBytes, r.PersistentBytes, r.PeakTransientBytes(), want)
	}
}

// TestForwardRequestsNeverWait reproduces the paper's observation:
// "there is almost no waiting time for forward requests even for
// Llama... our scheduling algorithm can always select and parallelize
// them with the backward computations of other clients."
func TestForwardRequestsNeverWait(t *testing.T) {
	r := run(t, menosCfg(4, memmodel.PaperLlamaWorkload()))
	if r.Waits.Forwards == 0 || r.Waits.Backwards == 0 {
		t.Fatalf("waits not recorded: %+v", r.Waits)
	}
	fwd := r.Waits.ForwardTotal / time.Duration(r.Waits.Forwards)
	bwd := r.Waits.BackwardTotal / time.Duration(r.Waits.Backwards)
	if fwd > 50*time.Millisecond+2*costmodelDecision {
		t.Fatalf("forwards wait %v on average, paper says almost none", fwd)
	}
	if bwd < fwd {
		t.Fatalf("backwards (%v) wait less than forwards (%v)", bwd, fwd)
	}
}

const costmodelDecision = 50 * time.Microsecond

// TestStaggeredArrivalMenos: clients joining mid-run are served
// without disturbing earlier clients beyond normal contention.
func TestStaggeredArrivalMenos(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	cfg := menosCfg(4, w)
	for i := range cfg.Clients {
		cfg.Clients[i].StartDelay = time.Duration(i) * 20 * time.Second
	}
	r := run(t, cfg)
	// Every client completed all its iterations.
	for _, c := range r.Clients {
		if c.Breakdown.Iterations() != cfg.Iterations {
			t.Fatalf("client %s completed %d/%d iterations",
				c.ID, c.Breakdown.Iterations(), cfg.Iterations)
		}
	}
	// Staggering reduces contention: per-round time at or below the
	// synchronized-arrival run.
	sync := run(t, menosCfg(4, w))
	if r.AvgIterationTime() > sync.AvgIterationTime()+time.Second {
		t.Fatalf("staggered (%v) slower than synchronized (%v)",
			r.AvgIterationTime(), sync.AvgIterationTime())
	}
}

// TestLateJoinerVanilla: the baseline's task-level sharing admits a
// late client by swapping ("allowing new incoming clients to be
// served") — the late joiner pays swap time, the total still finishes.
func TestLateJoinerVanilla(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	cfg := vanillaCfg(2, w)
	cfg.Clients[1].StartDelay = 8 * time.Second // client 1 is mid-run
	r := run(t, cfg)
	late := r.Clients[1]
	if late.Breakdown.Iterations() != cfg.Iterations {
		t.Fatalf("late joiner completed %d iterations", late.Breakdown.Iterations())
	}
	// At least one ≈21 s swap-in amortized over the run.
	if late.Breakdown.AvgSched() < 2*time.Second {
		t.Fatalf("late joiner avoided swapping: sched = %v", late.Breakdown.AvgSched())
	}
}

// TestReleaseOnWaitBetweenPreserveAndOnDemand: Fig. 3(c) sits between
// (b) and (d) in scheduling behaviour under pressure.
func TestReleaseOnWaitClose(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	mk := func(p MemPolicy) time.Duration {
		cfg := menosCfg(4, w)
		cfg.Policy = p
		return run(t, cfg).Aggregate.AvgSched()
	}
	preserve := mk(PolicyPreserve)
	release := mk(PolicyReleaseOnWait)
	onDemand := mk(PolicyOnDemand)
	if release >= preserve {
		t.Fatalf("release-on-wait (%v) not better than preserve (%v)", release, preserve)
	}
	// (c) and (d) both release during the gradient wait; (d)'s no-grad
	// trick additionally shrinks the *forward* footprint, so (d) is at
	// least as good.
	if onDemand > release+500*time.Millisecond {
		t.Fatalf("on-demand (%v) much worse than release-on-wait (%v)", onDemand, release)
	}
}

// TestLANLinkShowsComputeBound: with communication removed (LAN), the
// round time approaches compute time — validating the breakdown
// accounting.
func TestLANLinkShowsComputeBound(t *testing.T) {
	w := memmodel.PaperLlamaWorkload()
	cfg := menosCfg(1, w)
	cfg.LinkPreset = simnet.LANPreset
	r := run(t, cfg)
	if r.Aggregate.AvgComm() > 100*time.Millisecond {
		t.Fatalf("LAN comm = %v", r.Aggregate.AvgComm())
	}
	total := r.AvgIterationTime()
	comp := r.Aggregate.AvgComp()
	if total-comp > 200*time.Millisecond {
		t.Fatalf("unaccounted time: total %v vs comp %v", total, comp)
	}
}

// TestBiggerGPUFitsMoreVanillaClients: a device with four replicas'
// worth of memory serves 4 vanilla OPT clients without swapping, where
// the V100 (3 replicas) queues.
func TestBiggerGPUFitsMoreVanillaClients(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	v100 := vanillaCfg(4, w)
	big := vanillaCfg(4, w)
	big.GPUSpec = gpu.Spec{Name: "hypothetical-48G", MemoryBytes: 48 << 30}
	rv := run(t, v100)
	rb := run(t, big)
	if rv.Aggregate.AvgSched() < time.Second {
		t.Fatalf("V100 did not queue at 4 clients: %v", rv.Aggregate.AvgSched())
	}
	if rb.Aggregate.AvgSched() > 100*time.Millisecond {
		t.Fatalf("48G device queued: %v", rb.Aggregate.AvgSched())
	}
}

func TestBreakdownAverages(t *testing.T) {
	var b Breakdown
	for _, it := range [][3]time.Duration{
		{2 * time.Second, time.Second, 500 * time.Millisecond},
		{4 * time.Second, time.Second, 1500 * time.Millisecond},
	} {
		b.add("comm", it[0])
		b.add("compute", it[1])
		b.add("sched", it[2])
		b.iterations++
	}
	if b.Iterations() != 2 {
		t.Fatalf("iterations = %d", b.Iterations())
	}
	if b.AvgComm() != 3*time.Second {
		t.Fatalf("avg comm = %v", b.AvgComm())
	}
	if b.AvgComp() != time.Second {
		t.Fatalf("avg comp = %v", b.AvgComp())
	}
	if b.AvgSched() != time.Second {
		t.Fatalf("avg sched = %v", b.AvgSched())
	}
	if b.AvgTotal() != 5*time.Second {
		t.Fatalf("avg total = %v", b.AvgTotal())
	}
}

func TestBreakdownEmpty(t *testing.T) {
	var b Breakdown
	if b.AvgComm() != 0 || b.AvgTotal() != 0 {
		t.Fatal("empty breakdown not zero")
	}
}

// TestBreakdownMerge: a run's Aggregate is the sum of its clients'
// breakdowns, in both modes.
func TestBreakdownMerge(t *testing.T) {
	for _, cfg := range []Config{menosCfg(3, memmodel.PaperOPTWorkload()), vanillaCfg(3, memmodel.PaperOPTWorkload())} {
		r := run(t, cfg)
		var comm, comp, sched time.Duration
		var iters int
		for _, c := range r.Clients {
			cm, cp, s := c.Breakdown.Totals()
			comm, comp, sched, iters = comm+cm, comp+cp, sched+s, iters+c.Breakdown.Iterations()
		}
		gcm, gcp, gs := r.Aggregate.Totals()
		if gcm != comm || gcp != comp || gs != sched || r.Aggregate.Iterations() != iters {
			t.Errorf("%v: aggregate (%v %v %v over %d) != Σ clients (%v %v %v over %d)",
				cfg.Mode, gcm, gcp, gs, r.Aggregate.Iterations(), comm, comp, sched, iters)
		}
		if iters != 3*cfg.Iterations {
			t.Errorf("%v: %d iterations, want %d", cfg.Mode, iters, 3*cfg.Iterations)
		}
	}
}
