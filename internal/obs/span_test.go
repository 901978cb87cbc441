package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"testing"
	"time"
)

// manualClock is a hand-advanced Clock for deterministic span tests —
// the same role the sim kernel's virtual clock plays in production.
type manualClock struct{ t time.Duration }

func (c *manualClock) Now() time.Duration { return c.t }

func TestTracerBeginEnd(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk)

	h := tr.Begin("client-1", SpanKind{"forward", "compute"})
	clk.t = 30 * time.Millisecond
	h.End()

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Track != "client-1" || s.Name != "forward" || s.Cat != "compute" {
		t.Fatalf("bad span identity: %+v", s)
	}
	if s.Start != 0 || s.Dur != 30*time.Millisecond {
		t.Fatalf("bad span times: start=%v dur=%v", s.Start, s.Dur)
	}
}

func TestTracerRecordAndTotals(t *testing.T) {
	tr := NewTracer(ClockFunc(func() time.Duration { return 0 }))
	tr.RecordT("c1", SpanKind{"wait", "sched"}, 0, 0, 10*time.Second)
	tr.RecordT("c1", SpanKind{"fwd", "compute"}, 0, 10*time.Second, 5*time.Second)
	tr.RecordT("c2", SpanKind{"wait", "sched"}, 0, 0, 2*time.Second)

	totals := tr.CatTotals()
	if totals["sched"] != 12*time.Second {
		t.Fatalf("sched total = %v, want 12s", totals["sched"])
	}
	if totals["compute"] != 5*time.Second {
		t.Fatalf("compute total = %v, want 5s", totals["compute"])
	}
}

// TestTracerLimit: a tracer nobody sized is a ring at
// DefaultRingBytes. It holds every span up to that budget, then evicts
// the oldest, one per span past it, counting each.
func TestTracerLimit(t *testing.T) {
	tr := NewTracer(&manualClock{})
	kind := SpanKind{"s", "x"}
	fit := int(DefaultRingBytes / Span{Track: "c", Name: kind.Name, Cat: kind.Cat}.cost())
	for i := 0; i < fit+3; i++ {
		tr.RecordT("c", kind, 0, 0, time.Second)
	}
	if tr.Len() != fit {
		t.Fatalf("len = %d, want %d", tr.Len(), fit)
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	if first := tr.Spans()[0].Seq; first != 4 {
		t.Fatalf("oldest live seq = %d, want 4: the three oldest go first", first)
	}
}

// TestChromeTraceSchema validates the dumped JSON against the Chrome
// trace-event schema: a traceEvents array whose "X" events carry
// name/cat/ts/dur/pid/tid and whose threads are named via "M" records.
func TestChromeTraceSchema(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk)
	tr.RecordT("client-2", SpanKind{"wait:backward", "sched"}, 0, 5*time.Millisecond, 20*time.Millisecond)
	tr.RecordT("client-1", SpanKind{"forward", "compute"}, 0, 0, 5*time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// 2 metadata events (one per track) + 2 complete events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	names := make(map[int]string)
	var complete int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name != "thread_name" {
				t.Fatalf("metadata event %q, want thread_name", e.Name)
			}
			name, ok := e.Args["name"].(string)
			if !ok {
				t.Fatalf("thread_name without args.name: %+v", e)
			}
			names[e.TID] = name
		case "X":
			complete++
			if e.Name == "" || e.Cat == "" || e.PID == 0 || e.TID == 0 {
				t.Fatalf("incomplete X event: %+v", e)
			}
			if e.Dur <= 0 {
				t.Fatalf("X event without duration: %+v", e)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if complete != 2 {
		t.Fatalf("got %d complete events, want 2", complete)
	}
	// Track naming is sorted and stable: client-1 -> tid 1.
	if names[1] != "client-1" || names[2] != "client-2" {
		t.Fatalf("bad track naming: %v", names)
	}

	// Timestamps are microseconds.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "forward" && e.Dur != 5000 {
			t.Fatalf("forward dur = %v µs, want 5000", e.Dur)
		}
	}
}

// IterTraceID is FNV-1a 64 over the client ID and the big-endian
// iteration number, bit for bit what hash/fnv computes: traces recorded
// before it was inlined keep their IDs.
func TestIterTraceIDIsFNV1a(t *testing.T) {
	for _, id := range []string{"", "c1", "client-2048", "tenant/α"} {
		for _, iter := range []int{0, 1, 7, 1 << 20, -1} {
			h := fnv.New64a()
			h.Write([]byte(id))
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(iter))
			h.Write(b[:])
			want := h.Sum64()
			if want == 0 {
				want = 1
			}
			if got := IterTraceID(id, iter); got != want {
				t.Fatalf("IterTraceID(%q, %d) = %x, want %x", id, iter, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { IterTraceID("client-1", 3) }); n != 0 {
		t.Fatalf("IterTraceID allocates %.0f times", n)
	}
}
