package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"menos/internal/obs"
)

// telemetryServer is a fake menos-server built from the real obs
// stack, so the controller fetches the exact /trace documents a live
// server emits. Its admin plane lists no sessions. It counts the /trace
// requests it receives; while down it answers everything else 503, and
// with noTrace it answers /trace 404.
type telemetryServer struct {
	id        int
	reg       *obs.Registry
	tracer    *obs.Tracer
	srv       *httptest.Server
	traceHits atomic.Int64
	down      atomic.Bool
	noTrace   bool
}

func newTelemetryServer(t *testing.T, id int, clock obs.Clock) *telemetryServer {
	t.Helper()
	ts := &telemetryServer{id: id, reg: obs.NewRegistry()}
	ts.tracer = obs.NewTracer(clock)
	ts.tracer.SetProcess(id, "menos-server-"+string(rune('0'+id)))
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(ts.reg, ts.tracer,
		obs.WithIdentity(func() (int, string) { return ts.id, "127.0.0.1:0" }),
		obs.WithLoadz(func() any { return LoadSnapshot{AtSeconds: 1, Server: ServerLoad{ID: ts.id}} }),
	))
	mux.HandleFunc("GET /admin/sessions", noSessions)
	ts.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/trace" {
			ts.traceHits.Add(1)
			if ts.noTrace {
				http.NotFound(w, r)
				return
			}
		}
		if ts.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.srv.Close)
	return ts
}

func (ts *telemetryServer) endpoint() Endpoint {
	return Endpoint{ID: ts.id, Addr: "127.0.0.1:0", MetricsURL: ts.srv.URL, AdminURL: ts.srv.URL}
}

// TestControllerDownServerTelemetry pins the /fleetz DownForSeconds
// accounting for an unreachable server.
func TestControllerDownServerTelemetry(t *testing.T) {
	var now time.Duration
	clock := obs.ClockFunc(func() time.Duration { return now })
	ts := newTelemetryServer(t, 1, clock)
	c, err := NewController(ControllerConfig{
		Endpoints: []Endpoint{ts.endpoint()},
		Metrics:   obs.NewRegistry(),
		clock:     clock,
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

// TestControllerTraceFederation pins the merged fleet trace: the
// servers' /trace documents are fetched when the merge is asked for and
// never by a poll; a server down at the last poll is not fetched; each
// span keeps its seq under pid = its server's ID; a second merge
// returns the same spans; and a trace ID recorded on two healthy
// servers stitches under both pids.
func TestControllerTraceFederation(t *testing.T) {
	clock := obs.ClockFunc(func() time.Duration { return 0 })
	src := newTelemetryServer(t, 1, clock)
	dst := newTelemetryServer(t, 2, clock)
	dst.down.Store(true)
	iterID := obs.IterTraceID("mig-client", 7)
	src.tracer.RecordT("mig-client", obs.SpanForward, iterID, 0, time.Millisecond)
	src.tracer.RecordT("mig-client", obs.SpanMigrateOut, iterID, time.Millisecond, time.Millisecond)
	src.tracer.RecordT("sched", obs.SpanPark, 0, 2*time.Millisecond, time.Millisecond)
	// The migrated iteration replays on server 2 under the same trace ID.
	dst.tracer.RecordT("mig-client", obs.SpanForward, iterID, 5*time.Millisecond, time.Millisecond)

	c, err := NewController(ControllerConfig{
		Endpoints: []Endpoint{src.endpoint(), dst.endpoint()},
		Metrics:   obs.NewRegistry(),
		clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers := []*telemetryServer{src, dst}

	pollWithoutTrace(t, c, servers, 1)
	first := mergedByPID(t, c)
	if want := map[int][]mergedSpan{1: spansOf(src)}; !reflect.DeepEqual(first, want) {
		t.Fatalf("merged trace = %v, want only server 1's spans %v", first, want)
	}
	if n := dst.traceHits.Load(); n != 0 {
		t.Fatalf("server 2, down at the poll, was fetched %d times", n)
	}
	if again := mergedByPID(t, c); !reflect.DeepEqual(again, first) {
		t.Fatalf("second merge = %v, first = %v", again, first)
	}

	dst.down.Store(false)
	pollWithoutTrace(t, c, servers, 2)
	stitch := fmt.Sprintf("%016x", iterID)
	byPID := mergedByPID(t, c)
	for _, pid := range []int{1, 2} {
		if !slices.ContainsFunc(byPID[pid], func(s mergedSpan) bool { return s.traceID == stitch }) {
			t.Fatalf("pid %d carries no span of trace %s: %v", pid, stitch, byPID)
		}
	}
}

// TestControllerScrapeErrorDoesNotUnhealth pins that a failing /trace
// fetch (here: a server that serves health and loadz but 404s /trace)
// leaves that server out of the merged trace, counts one scrape error
// per merge and leaves its health intact.
func TestControllerScrapeErrorDoesNotUnhealth(t *testing.T) {
	clock := obs.ClockFunc(func() time.Duration { return 0 })
	healthy := newTelemetryServer(t, 1, clock)
	noTrace := newTelemetryServer(t, 2, clock)
	noTrace.noTrace = true
	healthy.tracer.RecordT("sched", obs.SpanPark, 0, 0, time.Millisecond)
	noTrace.tracer.RecordT("other", obs.SpanForward, 0, 0, time.Millisecond)

	reg := obs.NewRegistry()
	c, err := NewController(ControllerConfig{
		Endpoints: []Endpoint{healthy.endpoint(), noTrace.endpoint()},
		Metrics:   reg,
		clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers := []*telemetryServer{healthy, noTrace}
	pollWithoutTrace(t, c, servers, 2)
	for merge := int64(1); merge <= 2; merge++ {
		if got, want := mergedByPID(t, c), map[int][]mergedSpan{1: spansOf(healthy)}; !reflect.DeepEqual(got, want) {
			t.Fatalf("merge %d = %v, want only server 1's spans %v", merge, got, want)
		}
		if got := reg.Counter(obs.MetricFleetdScrapeErrors).Value(); got != merge {
			t.Fatalf("scrape errors after merge %d = %d, want %d", merge, got, merge)
		}
	}
	if row := c.Snapshot().Servers[1]; !row.Healthy {
		t.Fatalf("server 2 after failed /trace fetches: %+v, want healthy", row)
	}
	pollWithoutTrace(t, c, servers, 2)
}

// pollWithoutTrace runs one poll, requires want healthy servers, and
// requires that the poll fetched no /trace.
func pollWithoutTrace(t *testing.T, c *Controller, servers []*telemetryServer, want int) {
	t.Helper()
	traceHits := func() (n int64) {
		for _, ts := range servers {
			n += ts.traceHits.Load()
		}
		return n
	}
	before := traceHits()
	if n := c.PollOnce(); n != want {
		t.Fatalf("healthy = %d, want %d", n, want)
	}
	if got := traceHits() - before; got != 0 {
		t.Fatalf("PollOnce made %d /trace requests, want 0", got)
	}
}

// mergedByPID renders the controller's fleet trace and returns its
// spans by pid.
func mergedByPID(t *testing.T, c *Controller) map[int][]mergedSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteMergedTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			Args struct {
				Seq     uint64 `json:"seq"`
				TraceID string `json:"trace_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	byPID := map[int][]mergedSpan{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			byPID[ev.PID] = append(byPID[ev.PID], mergedSpan{ev.Name, ev.Args.Seq, ev.Args.TraceID})
		}
	}
	return byPID
}

// spansOf is what the merged trace should say of ts's spans.
func spansOf(ts *telemetryServer) []mergedSpan {
	var out []mergedSpan
	for _, s := range ts.tracer.Spans() {
		id := ""
		if s.TraceID != 0 {
			id = fmt.Sprintf("%016x", s.TraceID)
		}
		out = append(out, mergedSpan{s.Name, s.Seq, id})
	}
	return out
}

// mergedSpan is what the merged trace says of one span.
type mergedSpan struct {
	name    string
	seq     uint64
	traceID string
}

// noSessions is the admin plane of a server hosting no client.
func noSessions(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte("[]")) }
