package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestParseChromeTraceRoundTrip pins that a WriteChromeTrace dump
// decodes back into the same spans, and that the parsed trace renders
// through Tracer and WriteMergedChromeTrace under the pid it is given
// without losing a field — the contract fleetd's merged trace rests
// on.
func TestParseChromeTraceRoundTrip(t *testing.T) {
	var now time.Duration
	tr := NewTracer(ClockFunc(func() time.Duration { return now }))
	tr.SetProcess(3, "menos-server-3")
	id := IterTraceID("c1", 7)
	tr.RecordT("c1", SpanKind{"forward", "compute"}, id, 10*time.Millisecond, 5*time.Millisecond)
	tr.RecordT("sched", SpanKind{"grant", "sched"}, 0, 12*time.Millisecond, time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProcessName != "menos-server-3" {
		t.Fatalf("ProcessName = %q", got.ProcessName)
	}
	want := tr.Spans()
	same := func(what string, got []Span) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d spans, want %d", what, len(got), len(want))
		}
		for i, s := range got {
			if s != want[i] {
				t.Fatalf("%s: span %d = %+v, want %+v", what, i, s, want[i])
			}
		}
	}
	same("parsed", got.Spans)

	buf.Reset()
	if err := WriteMergedChromeTrace(&buf, got.Tracer(9)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"pid":9`) || strings.Contains(buf.String(), `"pid":3`) {
		t.Fatalf("re-rendered trace is not under pid 9: %s", buf.String())
	}
	again, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.ProcessName != "menos-server-3" {
		t.Fatalf("re-rendered ProcessName = %q", again.ProcessName)
	}
	same("re-rendered", again.Spans)
}

func TestParseChromeTraceMalformed(t *testing.T) {
	if _, err := ParseChromeTrace(strings.NewReader("{nope")); err == nil {
		t.Fatal("want error on malformed JSON")
	}
}
