package alert

import (
	"os"
	"testing"
	"time"

	"menos/internal/obs"
	"menos/internal/tsdb"
)

// thresholdRule is the test workhorse: active for every server whose
// latest "sig" sample is >= 1.
func thresholdRule(forDwell, resolve time.Duration) Rule {
	return Rule{
		Name:    "sig_high",
		Help:    "test signal at or above 1",
		For:     forDwell,
		Resolve: resolve,
		Eval: func(st *tsdb.Store, now time.Duration) []Sample {
			var out []Sample
			for _, srv := range st.Servers("sig") {
				id := tsdb.SeriesID{Name: "sig", Server: srv}
				if last, ok := st.Last(id); ok && last.Value >= 1 {
					out = append(out, Sample{Series: id, Value: last.Value})
				}
			}
			return out
		},
	}
}

// state fetches the single sig_high instance's state from a snapshot
// ("" when no instance is live).
func state(e *Engine, now time.Duration) string {
	doc := e.Snapshot(now)
	for _, r := range doc.Rules {
		if r.Name != "sig_high" {
			continue
		}
		if len(r.Instances) == 0 {
			return ""
		}
		return r.Instances[0].State
	}
	return ""
}

// TestHysteresisLadder is the virtual-clock table test: one instance
// driven through every rung by a scripted signal. Ticks are 1s apart;
// For=2s (escalate after the condition holds 2s), Resolve=3s
// (de-escalate one rung per 3s of uninterrupted calm).
func TestHysteresisLadder(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	e := NewEngine(Config{
		Store: st,
		Rules: []Rule{thresholdRule(2*time.Second, 3*time.Second)},
	})
	id := tsdb.SeriesID{Name: "sig", Server: 1}
	steps := []struct {
		sec   int
		value float64
		want  string // state AFTER the tick
	}{
		{0, 0, ""},        // calm: no instance
		{1, 5, "pending"}, // condition true: Pending immediately
		{2, 5, "pending"}, // held 1s < For
		{3, 5, "firing"},  // held 2s >= For
		{4, 5, "firing"},
		{5, 0, "firing"},  // calm 0s
		{6, 0, "firing"},  // calm 1s
		{7, 0, "firing"},  // calm 2s < Resolve
		{8, 0, "pending"}, // calm 3s: one rung down
		{9, 0, "pending"}, // fresh dwell begins (calm 1s)
		{10, 5, "firing"}, // relapse: Pending re-escalates (pendingSince was tick 8, held >= For)
		{11, 0, "firing"},
		{12, 0, "firing"},
		{13, 0, "firing"},
		{14, 0, "pending"}, // calm 3s again: Firing→Pending
		{15, 0, "pending"}, // fresh dwell begins here
		{16, 0, "pending"},
		{17, 0, "pending"},
		{18, 0, ""}, // calm 3s more: Pending→Inactive, instance gone
	}
	for _, stp := range steps {
		now := time.Duration(stp.sec) * time.Second
		st.Append(id, now, stp.value)
		e.EvalTick(now)
		if got := state(e, now); got != stp.want {
			t.Fatalf("t=%ds: state %q, want %q", stp.sec, got, stp.want)
		}
	}
}

// TestPendingNeverFiresOnBlip pins the For dwell: a condition that
// clears before the dwell elapses never reaches Firing.
func TestPendingNeverFiresOnBlip(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	e := NewEngine(Config{
		Store: st,
		Rules: []Rule{thresholdRule(3*time.Second, time.Second)},
		OnFiring: func(tr Transition) {
			t.Fatalf("blip fired: %+v", tr)
		},
	})
	id := tsdb.SeriesID{Name: "sig", Server: 1}
	script := []float64{5, 5, 0, 0, 5, 5, 0, 0} // never >= For consecutive
	for i, v := range script {
		now := time.Duration(i) * time.Second
		st.Append(id, now, v)
		e.EvalTick(now)
	}
	if got := e.Firing(); got != 0 {
		t.Fatalf("firing = %d, want 0", got)
	}
}

// TestForZeroFiresSameTick pins that For=0 rules (gpu_oom) go
// Inactive→Pending→Firing within one EvalTick.
func TestForZeroFiresSameTick(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	var fired []Transition
	e := NewEngine(Config{
		Store:    st,
		Rules:    []Rule{thresholdRule(0, time.Second)},
		OnFiring: func(tr Transition) { fired = append(fired, tr) },
	})
	id := tsdb.SeriesID{Name: "sig", Server: 1}
	st.Append(id, 0, 7)
	e.EvalTick(0)
	if got := state(e, 0); got != "firing" {
		t.Fatalf("state = %q, want firing", got)
	}
	if len(fired) != 1 || fired[0].Value != 7 || fired[0].Rule != "sig_high" {
		t.Fatalf("OnFiring calls = %+v", fired)
	}
}

// TestPerInstanceIndependence pins that instances of one rule escalate
// and resolve independently per labeled series.
func TestPerInstanceIndependence(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	e := NewEngine(Config{
		Store: st,
		Rules: []Rule{thresholdRule(time.Second, time.Second)},
	})
	a := tsdb.SeriesID{Name: "sig", Server: 1}
	b := tsdb.SeriesID{Name: "sig", Server: 2}
	for sec := 0; sec < 4; sec++ {
		now := time.Duration(sec) * time.Second
		st.Append(a, now, 5)
		st.Append(b, now, 0)
		if sec >= 2 {
			st.Append(b, now, 5)
		}
		e.EvalTick(now)
	}
	doc := e.Snapshot(4 * time.Second)
	var states []string
	for _, r := range doc.Rules {
		for _, in := range r.Instances {
			states = append(states, in.Series+"="+in.State)
		}
	}
	want := []string{`sig{server=1}=firing`, `sig{server=2}=firing`}
	if len(states) != 2 || states[0] != want[0] || states[1] != want[1] {
		t.Fatalf("instances = %v, want %v", states, want)
	}
	// Server 2 activated 2s later; its firing history confirms later
	// escalation rather than shared state.
	var aFire, bFire float64 = -1, -1
	for _, h := range doc.History {
		if h.To != "firing" {
			continue
		}
		switch h.Series {
		case "sig{server=1}":
			aFire = h.AtSeconds
		case "sig{server=2}":
			bFire = h.AtSeconds
		}
	}
	if aFire < 0 || bFire < 0 || bFire <= aFire {
		t.Fatalf("fire times a=%v b=%v, want b after a", aFire, bFire)
	}
}

// TestTransitionRingBounded pins maxTransitions.
func TestTransitionRingBounded(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	e := NewEngine(Config{
		Store: st,
		Rules: []Rule{thresholdRule(0, 0)},
	})
	id := tsdb.SeriesID{Name: "sig", Server: 1}
	const ticks = 2*maxTransitions + 20
	for i := 0; i < ticks; i++ {
		now := time.Duration(i) * time.Second
		st.Append(id, now, float64((i%2)*2)) // flap every tick
		e.EvalTick(now)
	}
	doc := e.Snapshot(ticks * time.Second)
	if len(doc.History) > maxTransitions {
		t.Fatalf("history %d entries, cap %d", len(doc.History), maxTransitions)
	}
	if doc.Transitions <= maxTransitions {
		t.Fatalf("transitions_total = %d, want > cap", doc.Transitions)
	}
	// Ring keeps the newest transitions.
	if doc.History[len(doc.History)-1].AtSeconds != ticks-1 {
		t.Fatalf("newest transition at %v, want %d", doc.History[len(doc.History)-1].AtSeconds, ticks-1)
	}
}

// TestEngineMetrics pins the firing gauge and transitions counter.
func TestEngineMetrics(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	reg := obs.NewRegistry()
	e := NewEngine(Config{Store: st, Rules: []Rule{thresholdRule(0, time.Second)}})
	e.Instrument(reg)
	id := tsdb.SeriesID{Name: "sig", Server: 1}
	st.Append(id, 0, 5)
	e.EvalTick(0)
	if got := reg.Gauge(obs.MetricFleetdAlertsFiring).Value(); got != 1 {
		t.Fatalf("firing gauge = %d, want 1", got)
	}
	// Inactive→Pending→Firing = 2 transitions.
	if got := reg.Counter(obs.MetricFleetdAlertsTransitions).Value(); got != 2 {
		t.Fatalf("transitions counter = %d, want 2", got)
	}
}

// TestOverloadCalibration is the deterministic "induced overload" run:
// a server scraped with grant-wait p99 far above its advertised SLO
// target drives the built-in slo_burn_rate rule through
// Pending→Firing, and the OnFiring hook records a flight snapshot —
// the same wiring menos-fleetd uses, on a virtual clock.
func TestOverloadCalibration(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	poll := 2 * time.Second
	recording, rules := Catalog(CatalogConfig{Poll: poll})

	var clock time.Duration
	tracer := obs.NewTracer(obs.ClockFunc(func() time.Duration { return clock }))
	flight, err := obs.NewFlightRecorder(obs.FlightConfig{
		Dir:   t.TempDir(),
		Clock: obs.ClockFunc(func() time.Duration { return clock }),
	}, nil, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer flight.Close()

	var fired []Transition
	e := NewEngine(Config{
		Store:     st,
		Recording: recording,
		Rules:     rules,
		OnFiring: func(tr Transition) {
			fired = append(fired, tr)
			if err := flight.Trigger(obs.FlightReasonAlert + ":" + tr.Rule); err != nil {
				t.Errorf("flight trigger: %v", err)
			}
		},
	})

	// Healthy warm-up: p99 well under the 2s target.
	p99 := tsdb.SeriesID{Name: obs.MetricServerWaitSeconds + P99Suffix, Server: 1}
	target := tsdb.SeriesID{Name: obs.MetricSchedAdmissionSLOTarget, Server: 1}
	tick := func(p99Sec float64) {
		st.Append(p99, clock, p99Sec)
		st.Append(target, clock, 2e6) // 2s advertised in micros
		e.EvalTick(clock)
		clock += poll
	}
	for i := 0; i < 5; i++ {
		tick(0.05)
	}
	if len(fired) != 0 || e.Firing() != 0 {
		t.Fatalf("healthy run fired %d alerts", len(fired))
	}

	// Overload: p99 3x the target. Burn rate climbs past 1 as the
	// 10-tick average fills with bad samples; then the For dwell
	// (3 polls) must elapse before Firing.
	for i := 0; i < 12 && len(fired) == 0; i++ {
		tick(6.0)
	}
	if len(fired) == 0 {
		t.Fatal("overload never fired slo_burn_rate")
	}
	tr := fired[0]
	if tr.Rule != "slo_burn_rate" || tr.Value < 1.0 {
		t.Fatalf("first firing = %+v, want slo_burn_rate with burn >= 1", tr)
	}
	if tr.Series.Server != 1 || tr.Series.Name != SeriesSLOBurnRate {
		t.Fatalf("firing series = %v", tr.Series)
	}
	// The flight snapshot landed on disk.
	info, err := os.Stat(flight.Path())
	if err != nil || info.Size() == 0 {
		t.Fatalf("flight snapshot missing: %v", err)
	}
	// Recovery: p99 back under target long enough resolves the alert
	// fully (two one-rung dwells).
	for i := 0; i < 25; i++ {
		tick(0.05)
	}
	if got := e.Firing(); got != 0 {
		t.Fatalf("still firing after recovery: %d", got)
	}
}

// TestCatalogHealthyFleetQuiet feeds the full catalog a healthy
// two-server fleet for many ticks and asserts total silence — the
// calibration contract behind the e2e zero-alert gate.
func TestCatalogHealthyFleetQuiet(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	poll := 2 * time.Second
	recording, rules := Catalog(CatalogConfig{Poll: poll})
	e := NewEngine(Config{
		Store:     st,
		Recording: recording,
		Rules:     rules,
		OnFiring:  func(tr Transition) { t.Errorf("healthy fleet fired %+v", tr) },
	})
	var clock time.Duration
	for i := 0; i < 50; i++ {
		for srv := 1; srv <= 2; srv++ {
			app := func(name string, v float64) {
				st.Append(tsdb.SeriesID{Name: name, Server: srv}, clock, v)
			}
			app(obs.MetricFleetdUp, 1)
			app(obs.MetricFleetdIdentityGauge, 0)
			app(obs.MetricServerWaitSeconds+P99Suffix, 0.02)
			app(obs.MetricSchedAdmissionSLOTarget, 2e6)
			app(obs.MetricSchedAdmissionShed, 0)
			app(obs.MetricGPUOOM, 0)
			app(obs.MetricServerActiveClients, float64(srv)) // 1 and 2: mildly uneven
			app(obs.MetricBatchFormed, float64(i))
			app(obs.MetricBatchOccupancy, 800)
		}
		e.EvalTick(clock)
		clock += poll
	}
	doc := e.Snapshot(clock)
	if doc.Firing != 0 || doc.Transitions != 0 {
		t.Fatalf("healthy fleet: firing=%d transitions=%d, want 0/0", doc.Firing, doc.Transitions)
	}
}

// TestCatalogServerDown drives the server_down rule through its dwell
// when menos_fleetd_up goes to 0, and resolves it when the server
// returns.
func TestCatalogServerDown(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	poll := time.Second
	recording, rules := Catalog(CatalogConfig{Poll: poll})
	var fired []Transition
	e := NewEngine(Config{
		Store:     st,
		Recording: recording,
		Rules:     rules,
		OnFiring:  func(tr Transition) { fired = append(fired, tr) },
	})
	id := tsdb.SeriesID{Name: obs.MetricFleetdUp, Server: 3}
	var clock time.Duration
	tick := func(up float64) {
		st.Append(id, clock, up)
		e.EvalTick(clock)
		clock += poll
	}
	tick(1)
	for i := 0; i < 6; i++ {
		tick(0)
	}
	if len(fired) != 1 || fired[0].Rule != "server_down" {
		t.Fatalf("fired = %+v, want one server_down", fired)
	}
	for i := 0; i < 10; i++ {
		tick(1)
	}
	if e.Firing() != 0 {
		t.Fatalf("server_down still firing after recovery")
	}
}

// TestCatalogGPUOOMImmediate pins the For=0 path of the gpu_oom rule.
func TestCatalogGPUOOMImmediate(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	recording, rules := Catalog(CatalogConfig{Poll: time.Second})
	var fired []Transition
	e := NewEngine(Config{
		Store:     st,
		Recording: recording,
		Rules:     rules,
		OnFiring:  func(tr Transition) { fired = append(fired, tr) },
	})
	id := tsdb.SeriesID{Name: obs.MetricGPUOOM, Server: 1}
	st.Append(id, 0, 0)
	e.EvalTick(0)
	st.Append(id, time.Second, 2) // two OOMs between polls
	e.EvalTick(time.Second)
	if len(fired) != 1 || fired[0].Rule != "gpu_oom" || fired[0].Value != 2 {
		t.Fatalf("fired = %+v, want immediate gpu_oom with value 2", fired)
	}
}
