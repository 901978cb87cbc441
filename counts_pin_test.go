package menos_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"menos/internal/costmodel"
	"menos/internal/fleet"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/simnet"
	"menos/internal/splitsim"
)

// countsPins are the SHA-256 digests of the JSON TestCountsPin renders.
// They were recorded before the counts moved into their metric handles,
// so a reader that sums, caps or rounds a count differently from the
// store it replaced fails here. splitsim/batch was re-recorded once,
// when admission control began deciding each batch member on its own
// parity: its run sheds batch members while throttled, which no batch
// ever was before.
var countsPins = map[string]string{
	"ledger":             "0ed53f2c078cef6fbb68b54f0d1268a0e005a4a9d10503af3ebbf2fb9c6c3dcb",
	"splitsim/autoscale": "ed4642064849b5721967265fef5757cb6794219e9a661e49254fadadebe8df60",
	"splitsim/batch":     "dd7ee4068b8af35c6f62f8030ef2f3efde60eeb35f216fad233f78518d0c9dc7",
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

// TestCountsPin pins the numbers two count readers report: the
// per-tenant ledger's rows, and a simulated fleet's scheduler, admission
// and fleet stats. Each is produced instrumented, into a registry of its
// own, and uninstrumented, and the two must agree.
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
	l := obs.NewLedger(obs.LedgerConfig{Clock: obs.ClockFunc(func() time.Duration { return now }), MaxClients: 2, Metrics: reg})

	l.Hold("a", true, 1000)
	l.Hold("b", false, 300)
	now = 1500 * time.Millisecond
	l.Hold("c", true, 70)
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
	l.Hold("a", false, 400)
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
	l.Hold("a", false, -400)
	l.Hold("b", false, -300)
	l.Hold("c", true, -70)
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
