package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestParseChromeTraceRoundTrip pins that a WriteChromeTrace dump
// decodes back into the same spans — the contract trace federation
// rests on.
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
	if got.LastSeq != tr.LastSeq() {
		t.Fatalf("LastSeq = %d, want %d", got.LastSeq, tr.LastSeq())
	}
	want := tr.Spans()
	if len(got.Spans) != len(want) {
		t.Fatalf("parsed %d spans, want %d", len(got.Spans), len(want))
	}
	for i, s := range got.Spans {
		if s != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
}

// TestParseChromeTraceSincePage pins that a /trace?since= page parses
// with the correct resume cursor even when the page is empty.
func TestParseChromeTraceSincePage(t *testing.T) {
	var now time.Duration
	tr := NewTracer(ClockFunc(func() time.Duration { return now }))
	for i := 0; i < 4; i++ {
		tr.RecordT("t", SpanKind{"s", "c"}, 0, time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	var buf bytes.Buffer
	if err := tr.writeChromeSpans(&buf, tr.SpansSince(2)); err != nil {
		t.Fatal(err)
	}
	got, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 || got.Spans[0].Seq != 3 {
		t.Fatalf("page = %+v, want seqs 3,4", got.Spans)
	}
	if got.LastSeq != 4 {
		t.Fatalf("LastSeq = %d, want 4", got.LastSeq)
	}
}

func TestParseChromeTraceMalformed(t *testing.T) {
	if _, err := ParseChromeTrace(strings.NewReader("{nope")); err == nil {
		t.Fatal("want error on malformed JSON")
	}
}
