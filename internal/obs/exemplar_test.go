package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestExemplarTracksExtreme: the exemplar follows the highest bucket
// seen, replacing it only with observations at least as extreme, so it
// always points at a trace of the histogram's tail.
func TestExemplarTracksExtreme(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("w_seconds", []float64{0.1, 1, 10})

	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("exemplar before any traced observation")
	}
	h.Observe(50) // untraced: counted, but no exemplar
	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("untraced observation set an exemplar")
	}

	h.ObserveExemplar(0.5, 0x111) // bucket le=1
	id, v, ok := h.Exemplar()
	if !ok || id != 0x111 || v != 0.5 {
		t.Fatalf("exemplar = %x/%v/%v", id, v, ok)
	}
	h.ObserveExemplar(0.05, 0x222) // lower bucket: not an upgrade
	if id, _, _ := h.Exemplar(); id != 0x111 {
		t.Fatalf("lower-bucket observation replaced exemplar: %x", id)
	}
	h.ObserveExemplar(5, 0x333) // higher bucket wins
	if id, v, _ := h.Exemplar(); id != 0x333 || v != 5 {
		t.Fatalf("exemplar = %x/%v, want 333/5", id, v)
	}
	h.ObserveExemplar(7, 0x444) // same bucket: most recent wins
	if id, _, _ := h.Exemplar(); id != 0x444 {
		t.Fatalf("same-bucket recency: %x", id)
	}
}

// TestExemplarInJSON: /metrics.json carries the exemplar with the same
// zero-padded hex trace ID format as /trace span args.
func TestExemplarInJSON(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("w_seconds", []float64{1})
	h.ObserveExemplar(3, 0xbeef)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Histograms map[string]struct {
			Exemplar *struct {
				TraceID string  `json:"trace_id"`
				Value   float64 `json:"value"`
			} `json:"exemplar"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ex := doc.Histograms["w_seconds"].Exemplar
	if ex == nil || ex.TraceID != "000000000000beef" || ex.Value != 3 {
		t.Fatalf("exemplar JSON = %+v", ex)
	}
}

// TestHelpEscaping: newlines and backslashes in help strings must not
// break the one-line HELP format.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "first line\nsecond \\ line").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP c_total first line\nsecond \\ line`
	if !strings.Contains(buf.String(), want+"\n") {
		t.Fatalf("HELP not escaped:\n%s", buf.String())
	}
}

// TestHealthzJSON: /healthz reports uptime, build info and the wired
// admission state as JSON.
func TestHealthzJSON(t *testing.T) {
	h := Handler(NewRegistry(), nil, WithAdmission(func() string { return "throttled" }))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var doc struct {
		Status         string  `json:"status"`
		UptimeSeconds  float64 `json:"uptime_seconds"`
		GoVersion      string  `json:"go_version"`
		AdmissionState string  `json:"admission_state"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.UptimeSeconds < 0 || doc.GoVersion == "" {
		t.Fatalf("healthz = %+v", doc)
	}
	if doc.AdmissionState != "throttled" {
		t.Fatalf("admission_state %q", doc.AdmissionState)
	}
}

// TestTraceEndpointPaging: /trace serves the whole buffer, or with
// ?window= a trailing duration of it, and rejects a malformed window.
func TestTraceEndpointPaging(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk)
	for i := 0; i < 4; i++ {
		tr.RecordT("c", SpanKind{"s", "x"}, 0, time.Duration(i)*time.Second, time.Second)
	}
	clk.t = 4 * time.Second
	h := Handler(nil, tr)

	count := func(path string) (n int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				n++
			}
		}
		return n
	}
	if n := count("/trace"); n != 4 {
		t.Fatalf("full dump: %d events, want 4", n)
	}
	if n := count("/trace?window=1500ms"); n != 2 {
		t.Fatalf("window=1500ms: %d events, want 2 (ends at 3s and 4s)", n)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?window=nope", nil))
	if rec.Code != 400 {
		t.Fatalf("window=nope: status %d, want 400", rec.Code)
	}
}
