package splitsim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strings"
	"testing"
	"time"

	"menos/internal/fleet"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/simnet"
)

// fleetCfg is a multi-server Menos run: n Llama clients over servers
// servers, slightly staggered so arrival order is visible in the trace.
func fleetCfg(n, servers int) Config {
	cfg := menosCfg(n, memmodel.PaperLlamaWorkload())
	cfg.Servers = servers
	for i := range cfg.Clients {
		cfg.Clients[i].StartDelay = time.Duration(i) * 500 * time.Millisecond
	}
	return cfg
}

// TestFleetRoundRobinByteIdentical is the compatibility guarantee of
// the fleet layer: a static multi-server run with an explicit
// RoundRobin placer must be byte-identical to the default (nil Placer)
// path, which itself reproduces the historical hardcoded i mod Servers
// assignment. Every observable — virtual end time, per-client
// breakdowns, the full memory timeline — must match exactly.
func TestFleetRoundRobinByteIdentical(t *testing.T) {
	base := run(t, fleetCfg(6, 3))

	cfg := fleetCfg(6, 3)
	cfg.Placer = fleet.NewRoundRobin()
	explicit := run(t, cfg)

	if base.SimulatedTime != explicit.SimulatedTime {
		t.Fatalf("SimulatedTime: nil placer %v, round-robin %v", base.SimulatedTime, explicit.SimulatedTime)
	}
	if base.AvgIterationTime() != explicit.AvgIterationTime() {
		t.Fatalf("AvgIterationTime: nil placer %v, round-robin %v",
			base.AvgIterationTime(), explicit.AvgIterationTime())
	}
	if len(base.MemSamples) != len(explicit.MemSamples) {
		t.Fatalf("MemSamples length: %d vs %d", len(base.MemSamples), len(explicit.MemSamples))
	}
	for i := range base.MemSamples {
		if base.MemSamples[i] != explicit.MemSamples[i] {
			t.Fatalf("MemSamples[%d]: %+v vs %+v", i, base.MemSamples[i], explicit.MemSamples[i])
		}
	}
	if bs, es := base.SchedStats, explicit.SchedStats; bs != es {
		t.Fatalf("SchedStats: %+v vs %+v", bs, es)
	}
	if base.Fleet != explicit.Fleet {
		t.Fatalf("FleetStats: %+v vs %+v", base.Fleet, explicit.Fleet)
	}
	if base.Fleet.Policy != "round-robin" || base.Fleet.Placements != 6 || base.Fleet.Migrations != 0 {
		t.Fatalf("static FleetStats = %+v", base.Fleet)
	}
}

// TestFleetStaticPlacementBalances: LeastLoaded and MemoryBestFit on a
// homogeneous roster both end perfectly balanced (imbalance 1.0), and
// the run completes with the policy name reported.
func TestFleetStaticPlacementBalances(t *testing.T) {
	for _, placer := range []fleet.Placer{fleet.NewLeastLoaded(), fleet.NewMemoryBestFit()} {
		cfg := fleetCfg(6, 3)
		cfg.Placer = placer
		r := run(t, cfg)
		if r.Fleet.Policy != placer.Name() {
			t.Errorf("policy name %q, want %q", r.Fleet.Policy, placer.Name())
		}
		if r.Fleet.ImbalanceRatio != 1.0 {
			t.Errorf("%s: imbalance %v, want 1.0 on a homogeneous roster", placer.Name(), r.Fleet.ImbalanceRatio)
		}
		if r.Fleet.FinalServers != 3 || r.Fleet.PeakServers != 3 {
			t.Errorf("%s: servers final=%d peak=%d, want 3/3", placer.Name(), r.Fleet.FinalServers, r.Fleet.PeakServers)
		}
	}
}

// TestFleetConfigValidation pins the fleet-plane config rules: vanilla
// has no fleet, autoscale bounds include the starting size.
func TestFleetConfigValidation(t *testing.T) {
	v := vanillaCfg(2, memmodel.PaperOPTWorkload())
	v.Placer = fleet.NewLeastLoaded()
	if _, err := Run(v); !errors.Is(err, ErrConfig) {
		t.Fatalf("vanilla+placer: err = %v, want ErrConfig", err)
	}
	v = vanillaCfg(2, memmodel.PaperOPTWorkload())
	v.Autoscale = &fleet.AutoscaleConfig{}
	if _, err := Run(v); !errors.Is(err, ErrConfig) {
		t.Fatalf("vanilla+autoscale: err = %v, want ErrConfig", err)
	}
	m := fleetCfg(2, 5)
	m.Autoscale = &fleet.AutoscaleConfig{Min: 1, Max: 3}
	if _, err := Run(m); !errors.Is(err, ErrConfig) {
		t.Fatalf("servers above Max: err = %v, want ErrConfig", err)
	}
}

// autoscaleCfg is an autoscaled run growing from one server: on a LAN
// (comm negligible) the iteration is dominated by server compute, so
// backward grants queue behind the single schedulable Llama backward
// and the mean queue depth crosses the scale-up threshold.
func autoscaleCfg(n int) Config {
	cfg := fleetCfg(n, 1)
	cfg.LinkPreset = simnet.LANPreset
	cfg.Placer = fleet.NewLeastLoaded()
	cfg.Autoscale = &fleet.AutoscaleConfig{Min: 1, Max: 3}
	return cfg
}

// TestFleetFailsAnUnplaceableClient: in an autoscaled run, a client
// whose transient peak exceeds a whole server is refused by every
// placement, grown fleet or not. After placementAttempts backoffs the
// run ends with an error naming that client instead of waiting on it
// forever, and the other clients' schedules do not hold the kernel up.
func TestFleetFailsAnUnplaceableClient(t *testing.T) {
	cfg := autoscaleCfg(3)
	cfg.Clients[1].Workload.Batch *= 64
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatal("Run did not return: the unplaceable client deadlocked the fleet")
	}
	want := fmt.Sprintf("client %q: no server could admit it after %d attempts", cfg.Clients[1].ID, placementAttempts)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
}

// TestFleetAutoscaleGrowsUnderLoad: eight Llama clients on one V100
// fit only one backward at a time, so the queue builds and the
// autoscaler must add servers; clients rebalance onto them.
func TestFleetAutoscaleGrowsUnderLoad(t *testing.T) {
	cfg := autoscaleCfg(8)
	tracer := obs.NewTracer(nil)
	cfg.Tracer = tracer
	r := run(t, cfg)
	if r.Fleet.PeakServers <= 1 {
		t.Fatalf("fleet never grew: %+v", r.Fleet)
	}
	if r.Fleet.ScaleEvents == 0 {
		t.Fatalf("no scale events recorded: %+v", r.Fleet)
	}
	if r.Fleet.Migrations == 0 {
		t.Fatalf("no client migrated to the new capacity: %+v", r.Fleet)
	}
	if r.Fleet.StartServers != 1 {
		t.Fatalf("StartServers = %d, want 1", r.Fleet.StartServers)
	}
	// Every migration bills its state transfer as one sched span.
	var migrateSpans int64
	for _, s := range tracer.Spans() {
		if (spanKey{s.Name, s.Cat} == spanKey{"migrate", "sched"}) {
			migrateSpans++
		}
	}
	if migrateSpans != r.Fleet.Migrations {
		t.Fatalf("%d migrate spans for %d migrations", migrateSpans, r.Fleet.Migrations)
	}
	// Growth must pay off: the run with autoscaling beats the pinned
	// single server.
	pinnedCfg := fleetCfg(8, 1)
	pinnedCfg.LinkPreset = simnet.LANPreset
	pinned := run(t, pinnedCfg)
	if r.AvgIterationTime() >= pinned.AvgIterationTime() {
		t.Fatalf("autoscaled iteration %v not better than single-server %v",
			r.AvgIterationTime(), pinned.AvgIterationTime())
	}
}

// TestFleetAutoscaleDeterministic: the entire fleet dynamic — scale
// events, migrations, final server count, the virtual end time — must
// be identical across repeated runs of the same config.
func TestFleetAutoscaleDeterministic(t *testing.T) {
	a := run(t, autoscaleCfg(6))
	b := run(t, autoscaleCfg(6))
	if a.SimulatedTime != b.SimulatedTime {
		t.Fatalf("SimulatedTime: %v vs %v", a.SimulatedTime, b.SimulatedTime)
	}
	if a.Fleet != b.Fleet {
		t.Fatalf("FleetStats: %+v vs %+v", a.Fleet, b.Fleet)
	}
	if a.AvgIterationTime() != b.AvgIterationTime() {
		t.Fatalf("AvgIterationTime: %v vs %v", a.AvgIterationTime(), b.AvgIterationTime())
	}
	if len(a.MemSamples) != len(b.MemSamples) {
		t.Fatalf("MemSamples length: %d vs %d", len(a.MemSamples), len(b.MemSamples))
	}
}

// recordingPlacer wraps a real placer and hashes every call: the client,
// every field of every ServerLoad it is shown, and the choice.
type recordingPlacer struct {
	fleet.Placer
	h     hash.Hash
	calls int
	// The highest live signals any call was shown.
	maxQueue int
	maxAdm   fleet.AdmissionState
}

func (p *recordingPlacer) Place(c fleet.ClientInfo, servers []fleet.ServerLoad) (int, error) {
	p.calls++
	fmt.Fprintf(p.h, "place %+v\n", c)
	for _, s := range servers {
		fmt.Fprintf(p.h, "  %+v\n", s)
		p.maxQueue = max(p.maxQueue, s.QueueDepth)
		p.maxAdm = max(p.maxAdm, s.Admission)
	}
	id, err := p.Placer.Place(c, servers)
	fmt.Fprintf(p.h, "-> %d %v\n", id, err)
	return id, err
}

// placerSeesDigests were recorded while every Place and Rebalance still
// probed each server's scheduler and devices at decision time.
var placerSeesDigests = map[string]string{
	"autoscale": "fa88aaab59cba6c90bad1f49958ee29887f6d72255a21b739f72124889ecfbe6",
	"best-fit":  "801379959178b973bb1c43ce5b2b6f6345f47eb13b1dcf74c8f403c87d8876c4",
	"fleet":     "dc599a5d6fa41f1ea797aa78f8ce4d580fdcec17c00a6f1c1f9574751c8ae5a0",
	"slo":       "c7cc34a2fbf093f8bdbe27569c1f317588be2cb692c6a3aad088357ab03ee729",
}

// TestPlacerSeesLiveLoads pins what every placement decision sees: a
// static fleet at sim_fleet's shape, memory-best-fit over mixed
// footprints, an autoscaled fleet (Rebalance places too) and an
// autoscaled least-loaded fleet under an SLO. The rows a placer reads
// must equal the live scheduler and device state at the moment of the
// decision.
func TestPlacerSeesLiveLoads(t *testing.T) {
	mixed := menosCfg(12, memmodel.PaperOPTWorkload())
	mixed.Servers, mixed.GPUs, mixed.Iterations = 3, 2, 1
	for i := range mixed.Clients {
		mixed.Clients[i].Workload.Batch = []int{4, 16, 8, 32}[i%4]
	}
	mixed.Placer = fleet.NewMemoryBestFit()
	slo := autoscaleCfg(8)
	slo.SLO = sched.SLO{TargetP99: 2 * time.Second, Window: 40 * time.Second}
	for name, cfg := range map[string]Config{
		"fleet":     simFleetCfg(256, 2),
		"best-fit":  mixed,
		"autoscale": autoscaleCfg(8),
		"slo":       slo,
	} {
		p := &recordingPlacer{Placer: cfg.Placer, h: sha256.New()}
		cfg.Placer = p
		run(t, cfg)
		// Each config must reach the signals it is in the set for.
		switch {
		case p.calls < len(cfg.Clients),
			name == "autoscale" && p.maxQueue == 0,
			name == "slo" && p.maxAdm == fleet.AdmissionOpen:
			t.Errorf("%s: %d calls, max queue depth %d, max admission %d: config no longer exercises its path",
				name, p.calls, p.maxQueue, p.maxAdm)
		}
		got := hex.EncodeToString(p.h.Sum(nil))
		if want := placerSeesDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}
