package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func readFlightRecords(t *testing.T, path string) []map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlightRecorderSnapshot: a trigger writes one JSONL record holding
// the trace window (with trace IDs) and the metrics state.
func TestFlightRecorderSnapshot(t *testing.T) {
	clk := &manualClock{}
	reg := NewRegistry()
	reg.Counter("menos_rejected_total", "sheds").Add(3)
	tr := NewTracer(clk)
	tr.RecordT("client-1", SpanKind{"wait:forward", "sched"}, 0xabc, 0, time.Second)

	fr, err := NewFlightRecorder(FlightConfig{Dir: t.TempDir(), clock: clk}, reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if err := fr.Trigger(FlightReasonShed); err != nil {
		t.Fatal(err)
	}
	recs := readFlightRecords(t, fr.Path())
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec["reason"] != FlightReasonShed {
		t.Fatalf("reason %v", rec["reason"])
	}
	spans, ok := rec["spans"].([]any)
	if !ok || len(spans) != 1 {
		t.Fatalf("spans %v", rec["spans"])
	}
	sp := spans[0].(map[string]any)
	if sp["trace_id"] != "0000000000000abc" {
		t.Fatalf("trace_id %v", sp["trace_id"])
	}
	metrics, ok := rec["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("metrics %v", rec["metrics"])
	}
	counters := metrics["counters"].(map[string]any)
	if counters["menos_rejected_total"] != float64(3) {
		t.Fatalf("metrics counters %v", counters)
	}
}

// TestFlightRateLimit: repeated triggers for one reason within
// MinInterval coalesce; a different reason records immediately.
func TestFlightRateLimit(t *testing.T) {
	clk := &manualClock{}
	fr, err := NewFlightRecorder(FlightConfig{
		Dir:         t.TempDir(),
		clock:       clk,
		MinInterval: time.Second,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	for i := 0; i < 5; i++ {
		if err := fr.Trigger(FlightReasonShed); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.Trigger(FlightReasonOOM); err != nil {
		t.Fatal(err)
	}
	if got := len(readFlightRecords(t, fr.Path())); got != 2 {
		t.Fatalf("%d records, want 2 (one per reason)", got)
	}
	clk.t = 2 * time.Second
	if err := fr.Trigger(FlightReasonShed); err != nil {
		t.Fatal(err)
	}
	if got := len(readFlightRecords(t, fr.Path())); got != 3 {
		t.Fatalf("%d records after interval, want 3", got)
	}
}

// TestFlightRotationBound: the active file rotates to .1 on overflow
// and total disk use stays bounded by ~2x maxBytes (lowered from 8 MiB
// so a few hundred records overflow it).
func TestFlightRotationBound(t *testing.T) {
	clk := &manualClock{}
	dir := t.TempDir()
	const maxBytes = 2048
	fr, err := NewFlightRecorder(FlightConfig{
		Dir:         dir,
		clock:       clk,
		MinInterval: time.Nanosecond,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr.maxBytes = maxBytes
	defer fr.Close()
	for i := 0; i < 200; i++ {
		clk.t += time.Microsecond
		if err := fr.Trigger(FlightReasonAdmission); err != nil {
			t.Fatal(err)
		}
	}
	active, err := os.Stat(fr.Path())
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := os.Stat(fr.Path() + ".1")
	if err != nil {
		t.Fatal("no rotation happened:", err)
	}
	if active.Size() > maxBytes {
		t.Fatalf("active file %d bytes over budget %d", active.Size(), maxBytes)
	}
	if total := active.Size() + rotated.Size(); total > 2*maxBytes {
		t.Fatalf("total %d bytes over 2x budget %d", total, 2*maxBytes)
	}
	// Rotated content is still valid JSONL.
	if recs := readFlightRecords(t, fr.Path()+".1"); len(recs) == 0 {
		t.Fatal("rotated file empty")
	}
}

// TestFlightAsyncAndClose: async triggers land before Close returns,
// and the recorder is safe to use (no panic, clean errors) afterwards.
func TestFlightAsyncAndClose(t *testing.T) {
	clk := &manualClock{}
	dir := t.TempDir()
	fr, err := NewFlightRecorder(FlightConfig{Dir: dir, clock: clk}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr.TriggerAsync(FlightReasonShed)
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(readFlightRecords(t, filepath.Join(dir, "flight.jsonl"))); got != 1 {
		t.Fatalf("%d records after close, want 1", got)
	}
	fr.TriggerAsync(FlightReasonShed) // must not panic
	if err := fr.Trigger(FlightReasonShed); err == nil {
		t.Fatal("sync trigger after close succeeded")
	}
	if err := fr.Close(); err != nil {
		t.Fatal("second close:", err)
	}

	// Nil recorder: every method is a no-op.
	var nilFR *FlightRecorder
	nilFR.TriggerAsync("x")
	if err := nilFR.Trigger("x"); err != nil {
		t.Fatal(err)
	}
	if err := nilFR.Close(); err != nil {
		t.Fatal(err)
	}
}
