package fleet

import (
	"testing"
	"time"
)

// mkLoads builds n active servers with the given per-server queue
// depth and admission state.
func mkLoads(n, queue int, adm AdmissionState) []ServerLoad {
	ls := make([]ServerLoad, n)
	for i := range ls {
		ls[i] = ServerLoad{ID: i, QueueDepth: queue, Admission: adm}
	}
	return ls
}

// TestAutoscalerHysteresis walks the state machine through a scripted
// load history on the virtual clock, mirroring the admission ladder's
// table test: immediate cooldown-gated scale-up, dwell-gated
// scale-down, and bounds at Min/Max.
func TestAutoscalerHysteresis(t *testing.T) {
	// The fixed 5s interval gives a 15s cooldown and a 20s down-dwell.
	cfg := AutoscaleConfig{Min: 1, Max: 3}
	steps := []struct {
		at      time.Duration
		pending int
		loads   []ServerLoad
		want    Decision
	}{
		// Quiet single server: nothing to do (already at Min).
		{at: 5 * time.Second, loads: mkLoads(1, 0, AdmissionOpen), want: Hold},
		// Queue builds: immediate scale-up.
		{at: 10 * time.Second, loads: mkLoads(1, 4, AdmissionOpen), want: ScaleUp},
		// Still pressured, but inside the 15s cooldown.
		{at: 15 * time.Second, loads: mkLoads(2, 4, AdmissionOpen), want: Hold},
		{at: 20 * time.Second, loads: mkLoads(2, 4, AdmissionOpen), want: Hold},
		// Cooldown over, pressure persists: second scale-up.
		{at: 25 * time.Second, loads: mkLoads(2, 4, AdmissionOpen), want: ScaleUp},
		// At Max: pressure can no longer grow the fleet.
		{at: 45 * time.Second, loads: mkLoads(3, 4, AdmissionOpen), want: Hold},
		// Admission pressure alone (queues empty) still counts, but the
		// fleet is at Max.
		{at: 50 * time.Second, loads: mkLoads(3, 0, AdmissionThrottled), want: Hold},
		// Calm begins: the dwell clock starts, no decision yet.
		{at: 55 * time.Second, loads: mkLoads(3, 0, AdmissionOpen), want: Hold},
		{at: 60 * time.Second, loads: mkLoads(3, 0, AdmissionOpen), want: Hold},
		{at: 70 * time.Second, loads: mkLoads(3, 0, AdmissionOpen), want: Hold},
		// 20s of calm (since 55s) and cooldown long over: scale down.
		{at: 75 * time.Second, loads: mkLoads(3, 0, AdmissionOpen), want: ScaleDown},
		// Fresh dwell required before the next shrink.
		{at: 80 * time.Second, loads: mkLoads(2, 0, AdmissionOpen), want: Hold},
		// A pressure blip resets the calm streak...
		{at: 85 * time.Second, loads: mkLoads(2, 4, AdmissionOpen), want: Hold}, // cooldown blocks the up
		{at: 90 * time.Second, loads: mkLoads(2, 0, AdmissionOpen), want: Hold},
		{at: 105 * time.Second, loads: mkLoads(2, 0, AdmissionOpen), want: Hold},
		// ...so the shrink lands a full dwell after the blip cleared.
		{at: 110 * time.Second, loads: mkLoads(2, 0, AdmissionOpen), want: ScaleDown},
		// At Min: calm can no longer shrink the fleet.
		{at: 140 * time.Second, loads: mkLoads(1, 0, AdmissionOpen), want: Hold},
	}
	a := NewAutoscaler(cfg)
	for i, s := range steps {
		if got := a.Decide(s.at, s.pending, s.loads); got != s.want {
			t.Fatalf("step %d (t=%v): Decide = %v, want %v", i, s.at, got, s.want)
		}
	}
}

func TestAutoscalerPendingPlacementsForceGrowth(t *testing.T) {
	a := NewAutoscaler(AutoscaleConfig{Min: 1, Max: 2})
	if got := a.Decide(time.Second, 3, mkLoads(1, 0, AdmissionOpen)); got != ScaleUp {
		t.Fatalf("pending placements: Decide = %v, want ScaleUp", got)
	}
}

func TestAutoscalerIgnoresDrainingServers(t *testing.T) {
	a := NewAutoscaler(AutoscaleConfig{Min: 1, Max: 3})
	loads := mkLoads(2, 0, AdmissionOpen)
	loads[1].QueueDepth = 100
	loads[1].Draining = true
	// The only pressure is on a draining server; it must not count.
	if got := a.Decide(time.Second, 0, loads); got != Hold {
		t.Fatalf("Decide = %v, want Hold (draining server's queue ignored)", got)
	}
}

func TestAutoscalerConfigValidate(t *testing.T) {
	if err := (AutoscaleConfig{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
	if err := (AutoscaleConfig{Min: 4, Max: 2}).Validate(); err == nil {
		t.Error("max < min: want error")
	}
	cfg := AutoscaleConfig{}.withDefaults()
	if cfg.Min != 1 || cfg.Max != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
}
