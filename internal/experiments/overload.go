package experiments

import (
	"fmt"
	"time"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/simnet"
	"menos/internal/splitsim"
)

// Overload-sweep tuning. The sweep runs Llama clients over a LAN link
// (comm no longer hides server queueing, so memory is the bottleneck,
// as in the paper's dense-deployment regime) with arrivals staggered
// 1s apart. Past ~8 clients one V100's schedulable memory saturates
// and the unprotected grant-wait p99 grows to several times the
// target; the controller holds it near TargetP99 by shedding.
const (
	// OverloadSLO is the grant-wait p99 target.
	OverloadSLO = 2 * time.Second
	// OverloadWindow is the sliding measurement window. Longer than the
	// default 8×target: the de-escalation dwell scales with it, which
	// keeps the controller from flapping back to Open and re-admitting
	// the backed-off clients as one herd.
	OverloadWindow = 40 * time.Second
	// overloadStagger spaces client arrivals so load builds gradually
	// instead of as one synchronized cold-start burst (which no
	// admission policy could react to — the controller needs observed
	// waits before it can act).
	overloadStagger = time.Second
)

// OverloadSweep drives the Menos scheduler past saturation and
// measures what adaptive admission control (docs/ADMISSION.md) buys:
// for each client count it runs the same workload twice — plain
// Algorithm 2, then with the SLO-governed controller — and reports the
// grant-wait p99 (virtual time, read back from the scheduler's wait
// histogram) plus the controller's activity. Without the controller
// the p99 grows with the client count; with it, shed-and-backoff holds
// the p99 of admitted requests near the target at the cost of retried
// submissions and a modestly longer run.
func OverloadSweep(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperLlamaWorkload()
	slo := sched.SLO{TargetP99: OverloadSLO, Window: OverloadWindow}
	t := NewTable(
		fmt.Sprintf("Overload sweep (Llama 2-7B, LAN, p99 SLO %v)", OverloadSLO),
		"clients", "p99 off (s)", "p99 on (s)", "sheds", "final state", "run off (s)", "run on (s)")
	for _, clients := range []int{4, 8, 12, 16} {
		off, err := runOverload(w, clients, opts.Iterations, sched.SLO{})
		if err != nil {
			return nil, fmt.Errorf("overload sweep (%d clients, no SLO): %w", clients, err)
		}
		on, err := runOverload(w, clients, opts.Iterations, slo)
		if err != nil {
			return nil, fmt.Errorf("overload sweep (%d clients, SLO): %w", clients, err)
		}
		t.AddRow(fmt.Sprintf("%d", clients),
			fmt.Sprintf("%.2f", off.p99),
			fmt.Sprintf("%.2f", on.p99),
			fmt.Sprintf("%d", on.result.Rejected),
			on.result.Admission.State.String(),
			Seconds(off.result.SimulatedTime),
			Seconds(on.result.SimulatedTime))
	}
	return t, nil
}

// OverloadFlight runs one saturating SLO-governed configuration (the
// sweep's deepest cell) with a tracer and a flight recorder writing
// into dir: every shed and admission-state transition snapshots the
// recent trace window and metrics into flight.jsonl. This is the CI
// overload artifact — a post-mortem of the simulated incident that can
// be archived and inspected without rerunning anything. It returns the
// run result and the flight file's path. With captureProfiles set,
// each snapshot also writes heap and goroutine pprof profiles next to
// the JSONL — self-observability of the benchmark process itself under
// its heaviest load.
func OverloadFlight(opts Options, dir string, captureProfiles bool) (*splitsim.Result, string, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperLlamaWorkload()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(nil) // spans carry explicit virtual times
	// A short rate-limit interval: the whole simulated incident plays
	// out in milliseconds of wall time, so the default 1s would keep
	// all but the first snapshot per reason.
	flight, err := obs.NewFlightRecorder(obs.FlightConfig{
		Dir:             dir,
		MinInterval:     time.Millisecond,
		CaptureProfiles: captureProfiles,
	}, reg, tracer)
	if err != nil {
		return nil, "", err
	}
	defer flight.Close()
	specs := splitsim.HomogeneousClients(16, w, costmodel.ClientGPUPerf())
	for i := range specs {
		specs[i].StartDelay = time.Duration(i) * overloadStagger
	}
	r, err := splitsim.Run(splitsim.Config{
		Mode:       splitsim.ModeMenos,
		SLO:        sched.SLO{TargetP99: OverloadSLO, Window: OverloadWindow},
		Clients:    specs,
		Iterations: opts.Iterations,
		LinkPreset: simnet.LANPreset,
		Metrics:    reg,
		Tracer:     tracer,
		Flight:     flight,
	})
	if err != nil {
		return nil, "", err
	}
	if ferr := flight.Err(); ferr != nil {
		return nil, "", fmt.Errorf("flight recorder: %w", ferr)
	}
	return r, flight.Path(), nil
}

// overloadRun is one cell of the sweep: the simulation result plus the
// grant-wait p99 read back from the virtual-clock histogram.
type overloadRun struct {
	result *splitsim.Result
	p99    float64 // seconds
}

func runOverload(w memmodel.Workload, clients, iterations int, slo sched.SLO) (overloadRun, error) {
	reg := obs.NewRegistry()
	specs := splitsim.HomogeneousClients(clients, w, costmodel.ClientGPUPerf())
	for i := range specs {
		specs[i].StartDelay = time.Duration(i) * overloadStagger
	}
	r, err := splitsim.Run(splitsim.Config{
		Mode:       splitsim.ModeMenos,
		SLO:        slo,
		Clients:    specs,
		Iterations: iterations,
		LinkPreset: simnet.LANPreset,
		Metrics:    reg,
	})
	if err != nil {
		return overloadRun{}, err
	}
	h := reg.Histogram(obs.MetricSchedWaitSeconds, obs.DurationBuckets())
	return overloadRun{result: r, p99: h.Quantile(0.99)}, nil
}
