package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPrometheusGolden pins the exact exposition output for a small
// registry, protecting scrape compatibility.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("menos_demo_total", "demo counter").Add(3)
	r.Gauge("menos_demo_depth").Set(2)
	h := r.Histogram("menos_demo_seconds", []float64{0.1, 1}, "demo histogram")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP menos_demo_total demo counter",
		"# TYPE menos_demo_total counter",
		"menos_demo_total 3",
		"# TYPE menos_demo_depth gauge",
		"menos_demo_depth 2",
		"# HELP menos_demo_seconds demo histogram",
		"# TYPE menos_demo_seconds histogram",
		`menos_demo_seconds_bucket{le="0.1"} 1`,
		`menos_demo_seconds_bucket{le="1"} 2`,
		`menos_demo_seconds_bucket{le="+Inf"} 3`,
		"menos_demo_seconds_sum 30.55",
		"menos_demo_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(7)
	h := r.Histogram("h_seconds", []float64{1, 10})
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64            `json:"count"`
			Sum     float64          `json:"sum"`
			Buckets map[string]int64 `json:"buckets"`
			P50     float64          `json:"p50"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc.Counters["c_total"] != 7 {
		t.Fatalf("counter = %d, want 7", doc.Counters["c_total"])
	}
	hj := doc.Histograms["h_seconds"]
	if hj.Count != 10 || hj.Sum != 5 {
		t.Fatalf("histogram count=%d sum=%g, want 10/5", hj.Count, hj.Sum)
	}
	if hj.Buckets["+Inf"] != 10 {
		t.Fatalf("+Inf bucket = %d, want 10", hj.Buckets["+Inf"])
	}
	if hj.P50 <= 0 || hj.P50 > 1 {
		t.Fatalf("p50 = %g, want within first bucket", hj.P50)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("menos_x_total").Inc()
	tr := NewTracer(NewWallClock())
	tr.RecordT("c", SpanKind{"s", "compute"}, 0, 0, time.Millisecond)
	h := Handler(r, tr)

	cases := []struct {
		path        string
		wantType    string
		wantContain string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "menos_x_total 1"},
		{"/metrics.json", "application/json", `"menos_x_total": 1`},
		{"/trace", "application/json", `"traceEvents"`},
		{"/healthz", "", "ok"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", c.path, rec.Code)
		}
		if c.wantType != "" && rec.Header().Get("Content-Type") != c.wantType {
			t.Fatalf("%s: content-type %q", c.path, rec.Header().Get("Content-Type"))
		}
		if !strings.Contains(rec.Body.String(), c.wantContain) {
			t.Fatalf("%s: body %q does not contain %q", c.path, rec.Body.String(), c.wantContain)
		}
	}

	// Nil registry and tracer must still serve valid documents.
	nilH := Handler(nil, nil)
	rec := httptest.NewRecorder()
	nilH.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Fatalf("nil tracer /trace: %d %q", rec.Code, rec.Body.String())
	}
}
