package menos_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"menos/internal/alert"
	"menos/internal/costmodel"
	"menos/internal/fleet"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/simnet"
	"menos/internal/splitsim"
	"menos/internal/tsdb"
)

// countsPins are the SHA-256 digests of the JSON TestCountsPin renders.
// They were recorded before the counts moved into their metric handles,
// so a reader that sums, caps or rounds a count differently from the
// store it replaced fails here.
var countsPins = map[string]string{
	"ledger":             "0ed53f2c078cef6fbb68b54f0d1268a0e005a4a9d10503af3ebbf2fb9c6c3dcb",
	"splitsim/autoscale": "ed4642064849b5721967265fef5757cb6794219e9a661e49254fadadebe8df60",
	"splitsim/batch":     "8b19c17e9bea1fde1c448cf1ef80bc0fb7469ce9f18264cb39e1bcf34880ef1a",
	"alert":              "393b309305dfd601bab54258e1f841fbc0dbf091820c935e4cc5076c24e80b69",
}

// pinDigest hashes v's JSON encoding.
func pinDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCountsPin pins the numbers three count readers report: the
// per-tenant ledger's rows, a simulated fleet's scheduler, admission and
// fleet stats, and the alert engine's /alertz document. Each is produced
// instrumented, into a registry of its own, and uninstrumented, and the
// two must agree.
func TestCountsPin(t *testing.T) {
	got := map[string]string{}
	for _, instrumented := range []bool{true, false} {
		reg := func() *obs.Registry {
			if instrumented {
				return obs.NewRegistry()
			}
			return nil
		}
		for name, v := range map[string]any{
			"ledger":             scriptedLedger(reg()),
			"splitsim/autoscale": pinnedSim(t, reg(), false),
			"splitsim/batch":     pinnedSim(t, reg(), true),
			"alert":              scriptedAlerts(reg()),
		} {
			d := pinDigest(t, v)
			if prev, ok := got[name]; ok && prev != d {
				t.Errorf("%s: uninstrumented digest %s, instrumented %s", name, d, prev)
			}
			got[name] = d
		}
	}
	for name, want := range countsPins {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}

// scriptedLedger drives every ledger method on a fake clock with room
// for two accounts, so clients "c" and "d" bill to the overflow row. "a"
// holds bytes before it has any count, and "other" and "b" are counted
// before "a", so a family that overflows on its own cap, rather than the
// ledger's, shows in a's row.
func scriptedLedger(reg *obs.Registry) []obs.ClientUsage {
	var now time.Duration
	l := obs.NewLedger(obs.LedgerConfig{Clock: obs.ClockFunc(func() time.Duration { return now }), MaxClients: 2})
	l.Instrument(reg)

	l.Acquire("persist:a", 1000)
	l.Acquire("b", 300)
	now = 1500 * time.Millisecond
	l.Acquire("persist:c", 70)
	l.AddCompute("c", 0.1)
	l.AddGrantWait("d", 0.2)
	l.AddIteration("d")
	l.AddCompute("b", 0.7)
	l.AddGrantWait("b", 0.3)
	l.AddIteration("b")
	l.AddCompute("a", 0.1)
	l.AddCompute("a", 0.2)
	l.AddGrantWait("a", 1e-6)
	l.AddIteration("a")
	l.Acquire("a", 400)
	now = 2 * time.Second
	l.AddWire("a", 1234, 567)
	l.AddWire("c", 0, 99)
	l.AddWire("b", 10, 0)
	l.AddBatchRows("a", 4)
	l.AddBatchRows("d", 2)
	l.Shed("b")
	l.Shed("c")
	l.Retry("b")
	l.Retry("d")
	l.Revoke("a")
	l.Revoke("d")
	now = 3250 * time.Millisecond
	l.Release("a", 400)
	l.Release("b", 300)
	l.Release("persist:c", 70)
	l.AddCompute("a", 0.3)
	l.AddIteration("a")
	now = 4100 * time.Millisecond
	return l.Snapshot()
}

// pinnedSim runs a small Llama fleet under an SLO, either eight
// staggered clients autoscaled from one server or sixteen on two static
// servers with batching, and returns the counts the run reports.
func pinnedSim(t *testing.T, reg *obs.Registry, batched bool) any {
	t.Helper()
	cfg := splitsim.Config{
		Mode:       splitsim.ModeMenos,
		Iterations: 4,
		LinkPreset: simnet.LANPreset,
		SLO:        sched.SLO{TargetP99: 2 * time.Second, Window: 10 * time.Second},
		Metrics:    reg,
	}
	if batched {
		cfg.Clients = splitsim.HomogeneousClients(16, memmodel.PaperLlamaWorkload(), costmodel.ClientGPUPerf())
		cfg.Servers, cfg.GPUs = 2, 1
		cfg.Batch = &sched.BatchPolicy{MaxSize: 4, MaxHold: 100 * time.Millisecond}
	} else {
		cfg.Clients = splitsim.HomogeneousClients(8, memmodel.PaperLlamaWorkload(), costmodel.ClientGPUPerf())
		for i := range cfg.Clients {
			cfg.Clients[i].StartDelay = time.Duration(i) * 500 * time.Millisecond
		}
		cfg.Servers = 1
		cfg.Placer = fleet.NewLeastLoaded()
		cfg.Autoscale = &fleet.AutoscaleConfig{Min: 1, Max: 3}
	}
	r, err := splitsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return struct {
		Sched     sched.Stats
		Admission sched.AdmissionStats
		Fleet     splitsim.FleetStats
	}{r.SchedStats, r.Admission, r.Fleet}
}

// scriptedAlerts walks two rules over a scripted store: one per-server
// threshold that pends, fires and resolves, and one that flaps.
func scriptedAlerts(reg *obs.Registry) alert.Doc {
	st := tsdb.New(tsdb.Config{})
	above := func(name string, at float64) func(*tsdb.Store, time.Duration) []alert.Sample {
		return func(st *tsdb.Store, now time.Duration) []alert.Sample {
			var out []alert.Sample
			for _, srv := range st.Servers(name) {
				id := tsdb.SeriesID{Name: name, Server: srv}
				if last, ok := st.Last(id); ok && last.Value >= at {
					out = append(out, alert.Sample{Series: id, Value: last.Value})
				}
			}
			return out
		}
	}
	e := alert.NewEngine(alert.Config{
		Store: st,
		Rules: []alert.Rule{
			{Name: "depth_high", Severity: "warning", For: 2 * time.Second, Resolve: 3 * time.Second, Eval: above("depth", 4)},
			{Name: "shed", Severity: "critical", Eval: above("sheds", 1)},
		},
	})
	e.Instrument(reg)
	depth := map[int][]float64{
		1: {0, 5, 6, 7, 8, 1, 0, 0, 0, 0, 0, 0, 0},
		2: {5, 0, 5, 0, 5, 5, 5, 0, 0, 0, 0, 0, 0},
	}
	sheds := []float64{0, 0, 1, 0, 2, 0, 0, 3, 0, 0, 0, 0, 0}
	for tick := range sheds {
		now := time.Duration(tick) * time.Second
		for srv, vs := range depth {
			st.Append(tsdb.SeriesID{Name: "depth", Server: srv}, now, vs[tick])
		}
		st.Append(tsdb.SeriesID{Name: "sheds", Server: 1}, now, sheds[tick])
		e.EvalTick(now)
	}
	return e.Snapshot(time.Duration(len(sheds)) * time.Second)
}
