package experiments

import (
	"fmt"
	"time"

	"menos/internal/costmodel"
	"menos/internal/fleet"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/simnet"
	"menos/internal/splitsim"
)

// Fleet-sweep tuning. The sweep runs a heterogeneous Llama roster — a
// repeating heavy/standard/light mix of cut depths, so per-client
// transient peaks differ by ~2× — on a LAN, the dense-deployment
// regime where server memory, not the link, is the bottleneck. Clients
// arrive staggered so the autoscaled cells see load build up.
const (
	// FleetStaticServers is the fixed fleet size of the static cells.
	FleetStaticServers = 3
	// FleetMaxServers caps the autoscaled cells (they start from one).
	FleetMaxServers = 6
	// fleetStagger spaces client arrivals.
	fleetStagger = 500 * time.Millisecond
)

// fleetCuts is the repeating split-point mix: cut 1 keeps almost the
// whole model server-side (the paper's configuration, heaviest
// transient peak), deeper cuts shift blocks to the client and shrink
// the server-side footprint. The heavy client leads because the
// server's base stack is sized from the first client's split.
var fleetCuts = []int{1, 8, 16}

// FleetSweep measures what telemetry-driven placement and autoscaling
// (docs/FLEET.md) buy on a multi-server fleet. For each roster size and
// placement policy it runs the same workload twice: on a static
// 3-server fleet, then autoscaled from a single server. Round-robin is
// the baseline — it interleaves blindly, and with a period-3
// heterogeneous mix on 3 servers it degenerates to stacking every
// heavy client on server 0. Least-loaded balances counts;
// memory-best-fit packs predicted peaks and is the only policy that
// keeps the heavy clients apart on purpose. The p99 grant wait and the
// shed count are read per cell from a fresh registry.
func FleetSweep(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := NewTable(
		fmt.Sprintf("Fleet sweep (Llama 2-7B heavy/std/light mix, LAN, static %d servers vs autoscale 1..%d)",
			FleetStaticServers, FleetMaxServers),
		"clients", "policy", "static p99 (s)", "static sheds",
		"auto p99 (s)", "auto sheds", "auto servers", "migrations", "scale events")
	policies := []struct {
		name string
		make func() fleet.Placer
	}{
		{"round-robin", func() fleet.Placer { return fleet.NewRoundRobin() }},
		{"least-loaded", func() fleet.Placer { return fleet.NewLeastLoaded() }},
		{"memory-best-fit", func() fleet.Placer { return fleet.NewMemoryBestFit() }},
	}
	for _, clients := range []int{12, 24, 48} {
		for _, pol := range policies {
			static, err := runFleet(clients, opts.Iterations, pol.make(), nil)
			if err != nil {
				return nil, fmt.Errorf("fleet sweep (%d clients, %s, static): %w", clients, pol.name, err)
			}
			auto, err := runFleet(clients, opts.Iterations, pol.make(),
				&fleet.AutoscaleConfig{Min: 1, Max: FleetMaxServers})
			if err != nil {
				return nil, fmt.Errorf("fleet sweep (%d clients, %s, autoscaled): %w", clients, pol.name, err)
			}
			t.AddRow(fmt.Sprintf("%d", clients), pol.name,
				fmt.Sprintf("%.2f", static.p99),
				fmt.Sprintf("%d", static.result.Rejected),
				fmt.Sprintf("%.2f", auto.p99),
				fmt.Sprintf("%d", auto.result.Rejected),
				fmt.Sprintf("%d->%d (peak %d)", auto.result.Fleet.StartServers,
					auto.result.Fleet.FinalServers, auto.result.Fleet.PeakServers),
				fmt.Sprintf("%d", auto.result.Fleet.Migrations),
				fmt.Sprintf("%d", auto.result.Fleet.ScaleEvents))
		}
	}
	return t, nil
}

// fleetClients builds the heterogeneous roster: the paper's Llama
// configuration at rotating cut depths, arrivals staggered.
func fleetClients(n int) []splitsim.ClientSpec {
	specs := make([]splitsim.ClientSpec, n)
	for i := range specs {
		w := memmodel.PaperLlamaWorkload()
		w.Cut = fleetCuts[i%len(fleetCuts)]
		specs[i] = splitsim.ClientSpec{
			ID:         fmt.Sprintf("client-%d", i+1),
			Workload:   w,
			Platform:   costmodel.ClientGPUPerf(),
			StartDelay: time.Duration(i) * fleetStagger,
		}
	}
	return specs
}

// fleetRun is one cell of the sweep: the simulation result plus the
// grant-wait p99 read back from the cell's own registry.
type fleetRun struct {
	result *splitsim.Result
	p99    float64 // seconds
}

// runFleet runs one fleet cell. autoscale nil means the static
// FleetStaticServers fleet; non-nil starts from one server and lets
// the autoscaler grow it. Every cell runs under the overload sweep's
// SLO so admission pressure is both visible (sheds) and a live scaling
// signal.
func runFleet(clients, iterations int, placer fleet.Placer, autoscale *fleet.AutoscaleConfig) (fleetRun, error) {
	reg := obs.NewRegistry()
	cfg := splitsim.Config{
		Mode:       splitsim.ModeMenos,
		SLO:        sched.SLO{TargetP99: OverloadSLO, Window: OverloadWindow},
		Servers:    FleetStaticServers,
		Placer:     placer,
		Clients:    fleetClients(clients),
		Iterations: iterations,
		LinkPreset: simnet.LANPreset,
		Metrics:    reg,
	}
	if autoscale != nil {
		cfg.Servers = autoscale.Min
		if cfg.Servers <= 0 {
			cfg.Servers = 1
		}
		cfg.Autoscale = autoscale
	}
	r, err := splitsim.Run(cfg)
	if err != nil {
		return fleetRun{}, err
	}
	h := reg.Histogram(obs.MetricSchedWaitSeconds, obs.DurationBuckets())
	return fleetRun{result: r, p99: h.Quantile(0.99)}, nil
}
