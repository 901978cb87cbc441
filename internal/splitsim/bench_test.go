package splitsim

import (
	"runtime"
	"testing"
)

// BenchmarkRunFleet is one run of the benchmark's sim_fleet workload at
// its exact config (perf/simfleet.go): 2048 paper-OPT clients on 64
// servers of 4 GPUs, LAN, least-loaded placement, batches of up to 8
// held 100 ms, 8 iterations, config built inside the timed loop as
// there. It reports simulated client-iterations per wall second;
// allocs/op is allocations per Run.
//
//	go test -run '^$' -bench RunFleet -benchtime 20x ./internal/splitsim
func BenchmarkRunFleet(b *testing.B) {
	b.ReportAllocs()
	iters := 0
	for i := 0; i < b.N; i++ {
		r, err := Run(simFleetCfg(2048, 8))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Clients {
			iters += c.Breakdown.Iterations()
		}
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "client-iters/s")
}

// BenchmarkFleetSetup is BenchmarkRunFleet's set-up alone: from the
// built config to every client priced, bound to its schedule, placed and
// admitted, with no kernel.Run. allocs/client is what one more client
// costs the set-up, its servers' share included.
//
//	go test -run '^$' -bench FleetSetup -benchmem ./internal/splitsim
func BenchmarkFleetSetup(b *testing.B) {
	const clients = 2048
	cfg := simFleetCfg(clients, 8)
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < b.N; i++ {
		if _, err := newMenosRun(cfg); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N*clients), "allocs/client")
}

// runFleetAllocs bounds the allocations of one batched 64-client ×
// 4-iteration fleet run from a built config: 489 measured (2,250 before
// profiles were shared and set-up and batches stopped allocating per
// client and per batch), plus 5 % slack. One allocation more per client
// is 64 more, one per batch 64 more (8 batches per phase).
const runFleetAllocs = 514

// TestRunFleetAllocs pins the allocations of a whole batched fleet run,
// so per-client set-up or per-batch allocation coming back fails here.
func TestRunFleetAllocs(t *testing.T) {
	cfg := simFleetCfg(64, 4)
	got := testing.AllocsPerRun(10, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got > runFleetAllocs {
		t.Errorf("a 64-client × 4-iteration batched fleet run allocates %v objects, want at most %d", got, runFleetAllocs)
	}
}
