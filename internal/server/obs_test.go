package server

import (
	"net"
	"testing"
	"time"

	"menos/internal/client"
	"menos/internal/obs"
	"menos/internal/share"
	"menos/internal/tensor"
)

// TestMetricsOverRealTCPRun drives a real client over TCP against an
// instrumented server and checks the telemetry a scrape would see.
func TestMetricsOverRealTCPRun(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.NewWallClock())
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Metrics: reg, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	clientReg := obs.NewRegistry()
	ccfg := clientCfg("metered")
	ccfg.Metrics = clientReg
	c, err := client.Dial(l.Addr().String(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := batchFor(ccfg, 3)
	const steps = 3
	for i := 0; i < steps; i++ {
		if _, err := c.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	if v := reg.Counter(obs.MetricServerAdmitted).Value(); v != 1 {
		t.Errorf("admitted = %d, want 1", v)
	}
	if v := reg.Counter(obs.MetricServerIterations).Value(); v != steps {
		t.Errorf("iterations counter = %d, want %d", v, steps)
	}
	st := srv.Stats()
	if st.Iterations != steps {
		t.Errorf("Stats().Iterations = %d, want %d", st.Iterations, steps)
	}
	// One grant wait per iteration: the forward's. A lone client's
	// backward claims the forward's parked grant and waits on nothing.
	if v := reg.Histogram(obs.MetricServerWaitSeconds, obs.DurationBuckets()).Count(); v != steps {
		t.Errorf("%s count = %d, want %d (one per iteration)", obs.MetricServerWaitSeconds, v, steps)
	}
	// Every phase runs under a grant: the forward's own, and for the
	// backward either a fresh one or the forward's, parked and claimed.
	if v := reg.Counter(obs.MetricSchedGranted).Value() + reg.Counter(obs.MetricSchedClaimed).Value(); v < 2*steps {
		t.Errorf("scheduler grants + claims = %d, want >= %d (forward+backward per step)", v, 2*steps)
	}
	if v := reg.Gauge(obs.MetricSchedParkedBytes).Value(); v != 0 {
		t.Errorf("parked bytes gauge = %d after the last backward, want 0", v)
	}
	// Alone on the server, every forward grows its grant to the backward
	// demand and every backward claims it back: Fig. 3(b)'s compute, no
	// re-forward.
	grown, claimed := reg.Counter(obs.MetricSchedGrown).Value(), reg.Counter(obs.MetricSchedClaimed).Value()
	if grown != steps || claimed != steps {
		t.Errorf("grown = %d, claimed = %d, want both %d", grown, claimed, steps)
	}
	if v := reg.Counter(obs.MetricServerReforwards).Value(); v != 0 {
		t.Errorf("reforwards = %d on an uncontended run, want 0", v)
	}
	if v := reg.Counter(obs.MetricGPUAllocOps).Value(); v == 0 {
		t.Error("no GPU allocations counted")
	}
	// The active-clients gauge must have returned to zero; closing the
	// connection tears the session down asynchronously.
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge(obs.MetricServerActiveClients).Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("active clients gauge stuck at %d", reg.Gauge(obs.MetricServerActiveClients).Value())
		}
		time.Sleep(time.Millisecond)
	}

	// Server spans: admission plus compute/sched segments per step.
	totals := tracer.CatTotals()
	if totals["compute"] <= 0 {
		t.Errorf("no compute span time recorded: %v", totals)
	}
	if totals["sched"] <= 0 {
		t.Errorf("no sched span time recorded: %v", totals)
	}
	var admits int
	for _, s := range tracer.Spans() {
		if s.Cat == "admission" {
			admits++
			if s.Track != "metered" {
				t.Errorf("admission span on track %q, want client id", s.Track)
			}
		}
	}
	if admits != 1 {
		t.Errorf("admission spans = %d, want 1", admits)
	}

	// Client-side metrics saw the same iterations.
	if v := clientReg.Counter(obs.MetricClientIterations).Value(); v != steps {
		t.Errorf("client iterations counter = %d, want %d", v, steps)
	}
}
