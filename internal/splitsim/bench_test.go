package splitsim

import "testing"

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
