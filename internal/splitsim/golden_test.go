package splitsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"menos/internal/costmodel"
	"menos/internal/fleet"
	"menos/internal/memmodel"
	"menos/internal/sched"
	"menos/internal/simnet"
)

// simFleetCfg is sim_fleet's shape (perf/simfleet.go) at any client
// count: paper-OPT clients, 32 per server on 4 GPUs each, LAN,
// least-loaded placement, batches of up to 8 held 100 ms.
func simFleetCfg(clients, iterations int) Config {
	return Config{
		Mode:       ModeMenos,
		Clients:    HomogeneousClients(clients, memmodel.PaperOPTWorkload(), costmodel.ClientGPUPerf()),
		Iterations: iterations,
		Servers:    clients / 32,
		GPUs:       4,
		LinkPreset: simnet.LANPreset,
		Placer:     fleet.NewLeastLoaded(),
		Batch:      &sched.BatchPolicy{MaxSize: 8, MaxHold: 100 * time.Millisecond},
	}
}

// goldenConfigs are the runs TestVirtualTimeGolden pins: between them
// they reach every branch of the client loop, the batch leader, the
// link's jitter and contention, admission sheds, autoscaling with
// migrations and the vanilla residency queue.
func goldenConfigs() map[string]Config {
	policy := func(p MemPolicy) Config {
		w := memmodel.PaperLlamaWorkload()
		if p == PolicyPersistAll {
			w = memmodel.PaperOPTWorkload() // two session-long Llama activation sets do not fit
		}
		cfg := menosCfg(4, w)
		cfg.Iterations = 4
		cfg.Policy = p
		return cfg
	}
	overlap := menosCfg(2, memmodel.PaperOPTWorkload())
	overlap.Overlap = true
	slo := menosCfg(6, memmodel.PaperLlamaWorkload())
	slo.SLO = sched.SLO{TargetP99: 2 * time.Second, Window: 40 * time.Second}
	batchSLO := batchedCfg(8, 4)
	batchSLO.Clients = HomogeneousClients(8, memmodel.PaperLlamaWorkload(), costmodel.ClientGPUPerf())
	batchSLO.GPUs = 1
	batchSLO.SLO = sched.SLO{TargetP99: 2 * time.Second, Window: 10 * time.Second}
	vanilla := vanillaCfg(4, memmodel.PaperOPTWorkload())
	vanilla.Clients[3].StartDelay = 8 * time.Second
	return map[string]Config{
		"fleet":           simFleetCfg(256, 8),
		"wan":             menosCfg(6, memmodel.PaperOPTWorkload()),
		"on-demand":       policy(PolicyOnDemand),
		"release-on-wait": policy(PolicyReleaseOnWait),
		"preserve":        policy(PolicyPreserve),
		"persist-all":     policy(PolicyPersistAll),
		"overlap":         overlap,
		"slo":             slo,
		"batch-slo":       batchSLO,
		"autoscale":       autoscaleCfg(8),
		"vanilla":         vanilla,
	}
}

// goldenDigests were recorded from the goroutine-per-process kernel the
// run-to-completion handlers replaced. They pin event order across
// implementations, which two runs of one binary cannot: any change in
// which of two equal-time events runs first moves a grant, a sample or a
// jittered transfer, and with it the digest.
var goldenDigests = map[string]string{
	"autoscale":       "a7f6a1eba021b4ea8aba53ab700a19703195e40f9d4d878af17725bd33571c81",
	"batch-slo":       "a81fb74fa173eb41d9810abfac8895754813dff0d5fa90cac2668fb837ec5ecd",
	"fleet":           "b1d9b76305934ceb59e0a77698d3b43d28330aef1c691d3cb82aa5e6dd3af6d3",
	"on-demand":       "19600639e29654cacc6eb6e4aa635c45c0d8ff05eb22eaf22e1d199893ce88d4",
	"overlap":         "13fdd29994691bc9fd663706d129ab20d398f6f4ed17f641115f8bee68f5a924",
	"persist-all":     "7a21a0b6418351d908a3c288aefd53862962c8fc709671f46c7bb84dedf3acb6",
	"preserve":        "23646e888938cb3f4d8128415697a53119fef2e764ecbd7be11b612fd3e18d75",
	"release-on-wait": "734408644d0f98ada7badd69b524b022db98ea112ec9130ae898e04093334c13",
	"slo":             "43a49d85ed5832117af53dd0d6649f49d88ea2ecd739db7ee2506827b85f5131",
	"vanilla":         "17116f8ae8c1d3e51bae4ad9aeee0420f0bb58f0188ee2ab85f9cc28ef3bb87e",
	"wan":             "4605ca5c96f9d03c0e5cc51095db915d94b76ad60783e6c6d09bbd144cd1fe2d",
}

// resultDigest hashes a canonical encoding of every virtual-time
// observable of r. DecisionTime (wall clock) is left out.
func resultDigest(r *Result) string {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("simulated %d\n", r.SimulatedTime)
	for _, c := range r.Clients {
		comm, comp, sch := c.Breakdown.Totals()
		put("client %s %d %d %d %d\n", c.ID, comm, comp, sch, c.Breakdown.Iterations())
	}
	w := r.Waits
	put("waits %d %d %d %d\n", w.ForwardTotal, w.BackwardTotal, w.Forwards, w.Backwards)
	for _, s := range r.MemSamples {
		put("mem %d %d\n", s.At, s.Bytes)
	}
	st := r.SchedStats
	put("sched %d %d %d %d %d %d %d %d %d\n", st.Submitted, st.Granted, st.Backfilled,
		st.Completed, st.Grown, st.Claimed, st.Revoked, st.Decisions, st.MaxQueueDepth)
	put("rejected %d hidden %d\n", r.Rejected, r.OverlapHidden)
	writeFleet(h, r.Fleet)
	return hex.EncodeToString(h.Sum(nil))
}

func writeFleet(h hash.Hash, f FleetStats) {
	fmt.Fprintf(h, "fleet %s %d %d %d %d %d %d %x\n", f.Policy, f.StartServers, f.FinalServers,
		f.PeakServers, f.Placements, f.Migrations, f.ScaleEvents, math.Float64bits(f.ImbalanceRatio))
}

// TestVirtualTimeGolden pins every virtual-time number of the golden
// configs to digests recorded before the simulator's process model was
// rewritten.
func TestVirtualTimeGolden(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		r := run(t, cfg)
		// Each config must reach the path it is in the set for.
		switch {
		case (name == "slo" || name == "batch-slo") && r.Rejected == 0,
			name == "autoscale" && r.Fleet.Migrations == 0,
			name == "vanilla" && r.Aggregate.AvgSched() == 0,
			name == "overlap" && r.OverlapHidden == 0,
			name == "fleet" && r.SchedStats.Granted+r.SchedStats.Backfilled == 0:
			t.Errorf("%s: config no longer exercises its path", name)
		}
		got := resultDigest(r)
		if want := goldenDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s (SimulatedTime %v)", name, got, want, r.SimulatedTime)
		}
	}
}
