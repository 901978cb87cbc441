package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"menos/internal/obs"
	"menos/internal/tsdb"
)

// telemetryServer is a fake menos-server built from the real obs
// stack, so the controller scrapes the exact /metrics.json and /trace
// documents a live server emits. Its admin plane lists no sessions.
type telemetryServer struct {
	id     int
	reg    *obs.Registry
	tracer *obs.Tracer
	srv    *httptest.Server
}

func newTelemetryServer(t *testing.T, id int, clock obs.Clock) *telemetryServer {
	t.Helper()
	ts := &telemetryServer{id: id, reg: obs.NewRegistry()}
	ts.tracer = obs.NewTracer(clock)
	ts.tracer.EnableRing(0)
	ts.tracer.SetProcess(id, "menos-server-"+string(rune('0'+id)))
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(ts.reg, ts.tracer,
		obs.WithIdentity(func() (int, string) { return ts.id, "127.0.0.1:0" }),
		obs.WithLoadz(func() any { return LoadSnapshot{AtSeconds: 1, Server: ServerLoad{ID: ts.id}} }),
	))
	mux.HandleFunc("GET /admin/sessions", noSessions)
	ts.srv = httptest.NewServer(mux)
	t.Cleanup(ts.srv.Close)
	return ts
}

func (ts *telemetryServer) endpoint() Endpoint {
	return Endpoint{ID: ts.id, Addr: "127.0.0.1:0", MetricsURL: ts.srv.URL, AdminURL: ts.srv.URL}
}

// TestControllerFederatesMetrics pins the scrape→store pipeline:
// counters, gauges, histogram quantiles and per-client vec series all
// land labeled by server, plus the synthetic up series.
func TestControllerFederatesMetrics(t *testing.T) {
	var now time.Duration
	clock := obs.ClockFunc(func() time.Duration { return now })
	ts := newTelemetryServer(t, 1, clock)
	ts.reg.Counter(obs.MetricGPUOOM).Add(3)
	ts.reg.Gauge(obs.MetricServerActiveClients).Set(2)
	h := ts.reg.Histogram(obs.MetricServerWaitSeconds, obs.DurationBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(0.01)
	}
	ts.reg.CounterVec(obs.MetricServerShedsTotal, "client").With("c1").Add(5)

	store := tsdb.New(tsdb.Config{})
	reg := obs.NewRegistry()
	c, err := NewController(ControllerConfig{
		Endpoints: []Endpoint{ts.endpoint()},
		Metrics:   reg,
		Store:     store,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	now = 10 * time.Second
	if n := c.PollOnce(); n != 1 {
		t.Fatalf("healthy = %d", n)
	}

	wantLast := func(id tsdb.SeriesID, want float64) {
		t.Helper()
		p, ok := store.Last(id)
		if !ok || p.Value != want {
			t.Fatalf("%s last = %+v (ok=%v), want %g", id, p, ok, want)
		}
		if p.At != 10*time.Second {
			t.Fatalf("%s stamped %v, want 10s", id, p.At)
		}
	}
	wantLast(tsdb.SeriesID{Name: obs.MetricFleetdUp, Server: 1}, 1)
	wantLast(tsdb.SeriesID{Name: obs.MetricFleetdIdentityGauge, Server: 1}, 0)
	wantLast(tsdb.SeriesID{Name: obs.MetricGPUOOM, Server: 1}, 3)
	wantLast(tsdb.SeriesID{Name: obs.MetricServerActiveClients, Server: 1}, 2)
	wantLast(tsdb.SeriesID{Name: obs.MetricServerWaitSeconds + "_count", Server: 1}, 100)
	wantLast(tsdb.SeriesID{Name: obs.MetricServerShedsTotal, Server: 1, Client: "c1"}, 5)
	if p, ok := store.Last(tsdb.SeriesID{Name: obs.MetricServerWaitSeconds + "_p99", Server: 1}); !ok || p.Value <= 0 {
		t.Fatalf("p99 series = %+v (ok=%v), want > 0", p, ok)
	}
	if got := reg.Counter(obs.MetricFleetdScrapes).Value(); got != 1 {
		t.Fatalf("scrapes counter = %d, want 1", got)
	}
	if got := reg.Gauge(obs.MetricFleetdTSDBSeries).Value(); got <= 0 {
		t.Fatalf("tsdb series gauge = %d, want > 0", got)
	}
}

// TestControllerDownServerTelemetry pins the synthetic up=0 series and
// the /fleetz DownForSeconds accounting for an unreachable server.
func TestControllerDownServerTelemetry(t *testing.T) {
	var now time.Duration
	clock := obs.ClockFunc(func() time.Duration { return now })
	ts := newTelemetryServer(t, 1, clock)
	store := tsdb.New(tsdb.Config{})
	c, err := NewController(ControllerConfig{
		Endpoints: []Endpoint{ts.endpoint()},
		Metrics:   obs.NewRegistry(),
		Store:     store,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	now = time.Second
	if n := c.PollOnce(); n != 1 {
		t.Fatalf("healthy = %d", n)
	}
	ts.srv.Close() // server dies
	now = 11 * time.Second
	if n := c.PollOnce(); n != 0 {
		t.Fatalf("healthy after close = %d", n)
	}
	if p, ok := store.Last(tsdb.SeriesID{Name: obs.MetricFleetdUp, Server: 1}); !ok || p.Value != 0 {
		t.Fatalf("up series = %+v, want 0", p)
	}
	now = 21 * time.Second
	snap := c.Snapshot()
	row := snap.Servers[0]
	if row.Healthy || row.Error == "" {
		t.Fatalf("row = %+v, want unhealthy with error", row)
	}
	// Last OK poll at t=1s, snapshot at t=21s.
	if row.DownForSeconds != 20 {
		t.Fatalf("DownForSeconds = %v, want 20", row.DownForSeconds)
	}
}

// TestControllerTraceFederation pins the /trace?since= cursor loop and
// the merged fleet trace: two servers recording spans under one
// IterTraceID yield a single Chrome trace with both pids carrying that
// trace ID, and re-polling never duplicates spans.
func TestControllerTraceFederation(t *testing.T) {
	var now time.Duration
	clock := obs.ClockFunc(func() time.Duration { return now })
	src := newTelemetryServer(t, 1, clock)
	dst := newTelemetryServer(t, 2, clock)
	iterID := obs.IterTraceID("mig-client", 7)
	src.tracer.RecordT("mig-client", obs.SpanForward, iterID, 0, time.Millisecond)
	src.tracer.RecordT("mig-client", obs.SpanMigrateOut, iterID, time.Millisecond, time.Millisecond)

	store := tsdb.New(tsdb.Config{})
	reg := obs.NewRegistry()
	c, err := NewController(ControllerConfig{
		Endpoints:      []Endpoint{src.endpoint(), dst.endpoint()},
		Metrics:        reg,
		Store:          store,
		Clock:          clock,
		FederateTraces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.PollOnce()
	// The migrated client's iteration replays on the destination under
	// the SAME trace ID; only these new spans should federate next.
	dst.tracer.RecordT("mig-client", obs.SpanForward, iterID, 5*time.Millisecond, time.Millisecond)
	c.PollOnce()
	c.PollOnce() // idempotent: cursor prevents re-ingesting anything

	fed := map[int]int{} // spans each server's mirror holds
	for id, st := range c.eps {
		if st.mirror != nil {
			fed[id] = st.mirror.Len()
		}
	}
	if fed[1] != 2 || fed[2] != 1 {
		t.Fatalf("federated spans = %v, want map[1:2 2:1]", fed)
	}
	if got := reg.Counter(obs.MetricFleetdTraceSpansFederated).Value(); got != 3 {
		t.Fatalf("federated counter = %d, want 3", got)
	}

	var buf bytes.Buffer
	if err := c.WriteMergedTrace(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Spans) != 3 {
		t.Fatalf("merged trace has %d spans, want 3", len(parsed.Spans))
	}
	// Both processes appear, stitched by the iteration trace ID: decode
	// the raw document to check per-pid attribution.
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if id, _ := ev.Args["trace_id"].(string); id != "" {
			pids[ev.PID] = true
		}
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("trace_id-bearing pids = %v, want both 1 and 2", pids)
	}
}

// TestControllerScrapeErrorDoesNotUnhealth pins that a failing
// /metrics.json scrape (here: a server whose handler serves health and
// loadz but 404s metrics.json) leaves health intact and counts a
// scrape error.
func TestControllerScrapeErrorDoesNotUnhealth(t *testing.T) {
	id := 1
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "server_id": &id, "addr": "x"})
	})
	mux.HandleFunc("/loadz", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(LoadSnapshot{Server: ServerLoad{ID: 1}})
	})
	mux.HandleFunc("GET /admin/sessions", noSessions)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	reg := obs.NewRegistry()
	c, err := NewController(ControllerConfig{
		Endpoints: []Endpoint{{ID: 1, Addr: "x", MetricsURL: srv.URL, AdminURL: srv.URL}},
		Metrics:   reg,
		Store:     tsdb.New(tsdb.Config{}),
		Clock:     obs.ClockFunc(func() time.Duration { return 0 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.PollOnce(); n != 1 {
		t.Fatalf("healthy = %d, want 1 despite scrape failure", n)
	}
	if got := reg.Counter(obs.MetricFleetdScrapeErrors).Value(); got != 1 {
		t.Fatalf("scrape errors = %d, want 1", got)
	}
}

// noSessions is the admin plane of a server hosting no client.
func noSessions(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte("[]")) }
