package splitsim

import (
	"os"
	"strings"
	"testing"
	"time"

	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
)

// checkParity asserts that summing spans by category reconstructs the
// run's aggregate Breakdown within tol (the acceptance bound is 1%; the
// implementation is exact by construction).
func checkParity(t *testing.T, tracer *obs.Tracer, r *Result, tol float64) {
	t.Helper()
	if tracer.Dropped() > 0 {
		t.Fatalf("tracer dropped %d spans; raise the limit", tracer.Dropped())
	}
	totals := tracer.CatTotals()
	comm, comp, sched := r.Aggregate.Totals()
	want := map[string]time.Duration{
		"comm":    comm,
		"compute": comp,
		"sched":   sched,
	}
	for cat, w := range want {
		got := totals[cat]
		diff := float64(got-w) / float64(w)
		if w == 0 {
			if got != 0 {
				t.Errorf("%s: spans total %v, breakdown 0", cat, got)
			}
			continue
		}
		if diff < 0 {
			diff = -diff
		}
		if diff > tol {
			t.Errorf("%s: spans total %v, breakdown %v (%.2f%% off)", cat, got, w, diff*100)
		}
	}
}

func TestMenosSpansReconstructBreakdown(t *testing.T) {
	tracer := obs.NewTracer(nil) // explicit-time records only
	cfg := menosCfg(6, memmodel.PaperOPTWorkload())
	cfg.Tracer = tracer
	r := run(t, cfg)
	checkParity(t, tracer, r, 0.01)

	// No wall-clock leakage: every span must start within the simulated
	// window. A time.Now()-based span would start ~56 years in.
	for _, s := range tracer.Spans() {
		if s.Start < 0 || s.Start > r.SimulatedTime {
			t.Fatalf("span %q/%q starts at %v, outside simulated time %v",
				s.Track, s.Name, s.Start, r.SimulatedTime)
		}
	}
}

func TestVanillaSpansReconstructBreakdown(t *testing.T) {
	tracer := obs.NewTracer(nil)
	cfg := vanillaCfg(4, memmodel.PaperOPTWorkload())
	cfg.Tracer = tracer
	r := run(t, cfg)
	checkParity(t, tracer, r, 0.01)
}

func TestMenosMetricsInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := menosCfg(6, memmodel.PaperOPTWorkload())
	cfg.Metrics = reg
	r := run(t, cfg)

	granted := reg.Counter(obs.MetricSchedGranted).Value()
	backfilled := reg.Counter(obs.MetricSchedBackfilled).Value()
	if got := granted + backfilled; got != int64(r.SchedStats.Granted+r.SchedStats.Backfilled) {
		t.Errorf("granted+backfilled counter = %d, scheduler stats say %d",
			got, r.SchedStats.Granted+r.SchedStats.Backfilled)
	}
	if v := reg.Counter(obs.MetricGPUAllocOps).Value(); v == 0 {
		t.Error("no GPU allocations counted")
	}
	// Wait-time histogram must be measured on the virtual clock: the
	// total must be consistent with the simulation's own wait stats
	// (which include the fixed decision cost per grant), not wall time.
	snap := reg.Histogram(obs.MetricSchedWaitSeconds, nil).Snapshot()
	simWaits := (r.Waits.ForwardTotal + r.Waits.BackwardTotal).Seconds()
	if snap.Count == 0 {
		t.Fatal("no scheduler waits observed")
	}
	if snap.Sum > simWaits {
		t.Errorf("histogram wait sum %.3fs exceeds simulated waits %.3fs (wall-clock leak?)",
			snap.Sum, simWaits)
	}
}

// TestTraceIDsDeterministic: two traced runs of the same config emit
// byte-identical span streams — same order, timing, and trace IDs — and
// every iteration-scoped span carries the obs.IterTraceID a TCP client
// would stamp, so simulator and wire traces correlate.
func TestTraceIDsDeterministic(t *testing.T) {
	record := func() []obs.Span {
		tracer := obs.NewTracer(nil)
		cfg := menosCfg(3, memmodel.PaperOPTWorkload())
		cfg.Tracer = tracer
		run(t, cfg)
		return tracer.Spans()
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}

	// Per-client compute spans must cycle through the deterministic
	// iteration trace IDs in order.
	want := make(map[uint64]bool)
	for iter := 0; iter < 8; iter++ {
		want[obs.IterTraceID("client-1", iter)] = true
	}
	var seen int
	for _, s := range a {
		if s.Track != "client-1" || s.Cat != "compute" {
			continue
		}
		if s.TraceID == 0 {
			t.Fatalf("compute span %q has no trace ID", s.Name)
		}
		if !want[s.TraceID] {
			t.Fatalf("compute span %q trace ID %x not an IterTraceID", s.Name, s.TraceID)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("no compute spans for client-1")
	}
}

// TestMenosShedTriggersFlight: an over-subscribed traced run with a
// flight recorder attached snapshots shed and admission transitions,
// and the snapshot spans carry the run's trace IDs.
func TestMenosShedTriggersFlight(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(nil)
	fr, err := obs.NewFlightRecorder(obs.FlightConfig{
		Dir:         t.TempDir(),
		MinInterval: time.Nanosecond,
	}, reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	// Llama at 6 clients over-subscribes the V100 hard enough to shed.
	cfg := menosCfg(6, memmodel.PaperLlamaWorkload())
	cfg.Metrics = reg
	cfg.Tracer = tracer
	cfg.SLO = sched.SLO{TargetP99: 2 * time.Second, Window: 40 * time.Second}
	cfg.Flight = fr
	r := run(t, cfg)
	if r.Rejected == 0 {
		t.Skip("config did not shed; flight path not exercised")
	}
	// Every shed is billed to the client it turned away: the per-client
	// series name only the run's clients and sum to its shed count.
	clients := map[string]bool{}
	for _, c := range r.Clients {
		clients[c.ID] = true
	}
	sheds := reg.CounterVec(obs.MetricServerShedsTotal, "client")
	var billed int64
	for _, id := range sheds.Labels() {
		if !clients[id] {
			t.Fatalf("%s{client=%q}: no such client in the run", obs.MetricServerShedsTotal, id)
		}
		c, _ := sheds.Get(id)
		billed += c.Value()
	}
	if billed != r.Rejected {
		t.Fatalf("%s sums to %d over clients, want the run's %d sheds", obs.MetricServerShedsTotal, billed, r.Rejected)
	}
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fr.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason":"`+obs.FlightReasonShed+`"`) {
		t.Fatal("no shed snapshot in flight recording")
	}
	// Shedding means the controller left Open, and every state change
	// snapshots too.
	if r.Admission.Transitions == 0 {
		t.Fatal("a shedding run recorded no admission transition")
	}
	if !strings.Contains(string(data), `"reason":"`+obs.FlightReasonAdmission+`"`) {
		t.Fatal("no admission-transition snapshot in flight recording")
	}
	if !strings.Contains(string(data), `"trace_id":"`) {
		t.Fatal("flight snapshot spans carry no trace IDs")
	}
}

func TestVanillaSwapMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	// Four OPT clients over-subscribe one V100, forcing swapping.
	cfg := vanillaCfg(4, memmodel.PaperOPTWorkload())
	cfg.Metrics = reg
	run(t, cfg)

	ops := reg.Counter(obs.MetricSwapOps).Value()
	bytes := reg.Counter(obs.MetricSwapBytes).Value()
	if ops == 0 || bytes == 0 {
		t.Fatalf("over-subscribed vanilla run recorded no swaps (ops=%d bytes=%d)", ops, bytes)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), obs.MetricSwapBytes) {
		t.Error("swap bytes missing from Prometheus export")
	}
}
