package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one completed timed interval on a named track (a client, a
// scheduler, a device). Categories group spans for analysis: the
// serving path uses "admission", "sched", "compute", "comm" and
// "release", matching the breakdown of the paper's Tables 1-3.
//
// TraceID groups the spans of one logical operation across tracks —
// and, carried over the split-protocol wire, across processes: a
// client iteration and the server-side sched/compute/release work it
// caused share one ID. Zero means "not part of a trace". Seq is a
// per-tracer monotonic sequence number assigned at record time, so
// pollers can page through a ring buffer without duplicates.
type Span struct {
	Track   string        // rendering track: client ID or component name
	Name    string        // e.g. "forward", "wait:backward"
	Cat     string        // e.g. "compute", "sched", "comm"
	TraceID uint64        // 0 = untraced; otherwise links spans across tracks/processes
	Seq     uint64        // monotonic per tracer, assigned at record time
	Start   time.Duration // clock time at span begin
	Dur     time.Duration
}

// End returns the clock time at which the span completed.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// spanFixedCost approximates the in-memory overhead of one Span beyond
// its string payloads (struct fields plus slice bookkeeping).
const spanFixedCost = 64

// cost is the byte accounting used by the ring budget.
func (s Span) cost() int64 {
	return spanFixedCost + int64(len(s.Track)+len(s.Name)+len(s.Cat))
}

// Tracer collects spans through a Clock, so the same call sites record
// wall time on the TCP runtime and virtual time in the simulator.
//
// Two overflow policies:
//
//   - default (bounded buffer): once the span limit is reached new
//     spans are dropped and counted — cheap, deterministic, right for
//     one-shot runs that dump the whole trace at the end;
//   - ring (EnableRing): the OLDEST spans are evicted to keep the
//     buffer under a byte budget, so a long-running server always
//     holds the most recent window and /trace?window= stays bounded.
//
// Neither policy ever blocks the hot path.
type Tracer struct {
	clock Clock

	mu       sync.Mutex
	spans    []Span
	head     int // index of the oldest live span in spans
	ring     bool
	maxBytes int64
	curBytes int64
	dropped  int64
	nextSeq  uint64
	dropCtr  *Counter

	pid   int
	pname string
}

// DefaultSpanLimit bounds a tracer's buffer outside ring mode: enough
// for ~100k spans (a few thousand iterations across tens of
// clients) at ~64 bytes each.
const DefaultSpanLimit = 1 << 17

// DefaultRingBytes is the ring-mode byte budget when EnableRing is
// called with a non-positive value (~8 MiB, roughly 100k spans).
const DefaultRingBytes = 8 << 20

// NewTracer creates a tracer reading timestamps from clock (required).
func NewTracer(clock Clock) *Tracer {
	return &Tracer{clock: clock, pid: 1}
}

// EnableRing switches the tracer to ring mode: instead of dropping the
// newest spans at capacity, it evicts the oldest to keep the buffer's
// byte accounting at or below maxBytes (<= 0 means DefaultRingBytes).
// Evictions count toward Dropped, so truncation is never silent. Safe
// on nil.
func (t *Tracer) EnableRing(maxBytes int64) {
	if t == nil {
		return
	}
	if maxBytes <= 0 {
		maxBytes = DefaultRingBytes
	}
	t.mu.Lock()
	t.ring = true
	t.maxBytes = maxBytes
	t.curBytes = 0
	for i := t.head; i < len(t.spans); i++ {
		t.curBytes += t.spans[i].cost()
	}
	t.evictLocked()
	t.mu.Unlock()
}

// SetProcess names this tracer's process in Chrome trace output. Each
// process in a merged trace (WriteMergedChromeTrace) needs a distinct
// pid; single-tracer dumps default to pid 1. Safe on nil.
func (t *Tracer) SetProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pid = pid
	t.pname = name
	t.mu.Unlock()
}

// Instrument publishes the tracer's drop counter as
// MetricObsSpansDropped in reg, seeding it with drops recorded so far.
// Safe on nil tracer or registry.
func (t *Tracer) Instrument(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	c := reg.Counter(MetricObsSpansDropped,
		"spans discarded by the tracer (buffer-full drops and ring evictions)")
	t.mu.Lock()
	t.dropCtr = c
	c.Add(t.dropped - c.Value())
	t.mu.Unlock()
}

// Now returns the tracer's clock reading. Safe on nil (returns 0).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

// Begin opens an untraced span at the current clock time. End
// completes and records it. Safe on a nil tracer (returns a nil handle
// whose End is a no-op).
func (t *Tracer) Begin(track, name, cat string) *SpanHandle {
	return t.BeginT(track, name, cat, 0)
}

// BeginT opens a span carrying a trace ID. Safe on nil.
func (t *Tracer) BeginT(track, name, cat string, traceID uint64) *SpanHandle {
	if t == nil {
		return nil
	}
	return &SpanHandle{t: t, span: Span{Track: track, Name: name, Cat: cat, TraceID: traceID, Start: t.clock.Now()}}
}

// Record appends a completed untraced span with explicit times — the
// simulator's path, where durations are known without sampling the
// clock twice. Safe on nil.
func (t *Tracer) Record(track, name, cat string, start, dur time.Duration) {
	t.RecordT(track, name, cat, 0, start, dur)
}

// RecordT appends a completed span carrying a trace ID. Safe on nil.
func (t *Tracer) RecordT(track, name, cat string, traceID uint64, start, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nextSeq++
	s := Span{Track: track, Name: name, Cat: cat, TraceID: traceID, Seq: t.nextSeq, Start: start, Dur: dur}
	if t.ring {
		t.spans = append(t.spans, s)
		t.curBytes += s.cost()
		t.evictLocked()
		t.compactLocked()
	} else if len(t.spans)-t.head >= DefaultSpanLimit {
		t.dropLocked(1)
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// evictLocked discards oldest spans until the ring is within budget,
// always retaining the newest span. Caller holds t.mu.
func (t *Tracer) evictLocked() {
	for t.curBytes > t.maxBytes && len(t.spans)-t.head > 1 {
		t.curBytes -= t.spans[t.head].cost()
		t.spans[t.head] = Span{}
		t.head++
		t.dropLocked(1)
	}
}

// compactLocked slides live spans to the front once the dead prefix
// dominates, so the backing array does not grow without bound. Caller
// holds t.mu.
func (t *Tracer) compactLocked() {
	if t.head < 32 || t.head <= len(t.spans)/2 {
		return
	}
	n := copy(t.spans, t.spans[t.head:])
	t.spans = t.spans[:n]
	t.head = 0
}

// dropLocked records n discarded spans. Caller holds t.mu.
func (t *Tracer) dropLocked(n int64) {
	t.dropped += n
	t.dropCtr.Add(n) // nil-safe
}

// Spans returns a copy of the live spans, oldest first. Safe on nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans)-t.head)
	copy(out, t.spans[t.head:])
	return out
}

// SpansSince returns the live spans with Seq > seq, oldest first —
// the paging primitive behind /trace?since=. A poller that feeds back
// the largest Seq it has seen never receives a span twice. Safe on
// nil.
func (t *Tracer) SpansSince(seq uint64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.spans[t.head:]
	// Seqs are assigned in record order, so the live buffer is sorted.
	i := sort.Search(len(live), func(i int) bool { return live[i].Seq > seq })
	out := make([]Span, len(live)-i)
	copy(out, live[i:])
	return out
}

// SpansWindow returns the live spans whose end time falls within the
// trailing window d — /trace?window=. The window is anchored at the
// tracer's clock; with a nil clock (offline dumps) it is anchored at
// the latest span end in the buffer. d <= 0 returns everything. Safe
// on nil.
func (t *Tracer) SpansWindow(d time.Duration) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.spans[t.head:]
	if d <= 0 {
		out := make([]Span, len(live))
		copy(out, live)
		return out
	}
	var now time.Duration
	if t.clock != nil {
		now = t.clock.Now()
	} else {
		for _, s := range live {
			if s.End() > now {
				now = s.End()
			}
		}
	}
	cutoff := now - d
	out := make([]Span, 0, len(live))
	for _, s := range live {
		if s.End() >= cutoff {
			out = append(out, s)
		}
	}
	return out
}

// LastSeq returns the sequence number of the most recently recorded
// span (0 before any span). Safe on nil.
func (t *Tracer) LastSeq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextSeq
}

// Len returns the number of buffered spans. Safe on nil.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) - t.head
}

// Dropped returns how many spans were discarded (buffer-full drops
// plus ring evictions). Safe on nil.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset clears the buffer and drop counter. Sequence numbers keep
// counting up so pagers spanning a Reset stay duplicate-free. Safe on
// nil.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.head = 0
	t.curBytes = 0
	t.dropped = 0
	t.mu.Unlock()
}

// CatTotals sums span durations by category — the span-side view of
// trace.Breakdown, used to cross-check that a dumped trace reconstructs
// the same decomposition the experiment tables report. Safe on nil.
func (t *Tracer) CatTotals() map[string]time.Duration {
	totals := make(map[string]time.Duration)
	for _, s := range t.Spans() {
		totals[s.Cat] += s.Dur
	}
	return totals
}

// SpanHandle is an open span returned by Begin/BeginT.
type SpanHandle struct {
	t    *Tracer
	span Span
}

// TraceID returns the trace ID the span was opened with. Safe on nil.
func (h *SpanHandle) TraceID() uint64 {
	if h == nil {
		return 0
	}
	return h.span.TraceID
}

// End completes the span at the current clock time and records it.
// Safe on a nil handle.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.span.Dur = h.t.clock.Now() - h.span.Start
	h.t.RecordT(h.span.Track, h.span.Name, h.span.Cat, h.span.TraceID, h.span.Start, h.span.Dur)
}

// IterTraceID derives the deterministic trace ID of one client
// iteration (FNV-1a over the client ID and iteration number, never
// zero). Both planes — the client that initiates the iteration and the
// server that receives its requests — can compute it independently,
// and the simulator's virtual-clock traces get the same IDs on every
// run.
func IterTraceID(clientID string, iter int) uint64 {
	// hash/fnv's New64a, inlined so a call allocates nothing: the
	// simulator derives one ID per client iteration.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	id := uint64(offset64)
	for i := 0; i < len(clientID); i++ {
		id ^= uint64(clientID[i])
		id *= prime64
	}
	for i := 0; i < 8; i++ { // iter, big-endian
		id ^= uint64(byte(uint64(iter) >> (56 - 8*i)))
		id *= prime64
	}
	if id == 0 {
		id = 1
	}
	return id
}

// chromeEvent is one Chrome trace-event ("X" complete events plus "M"
// thread-name metadata), loadable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// LastSeq lets a /trace?since= poller resume from this dump's end.
	LastSeq uint64 `json:"lastSeq"`
}

// traceProc is one process's contribution to a Chrome trace.
type traceProc struct {
	pid   int
	pname string
	spans []Span
}

// process returns the tracer's identity and a copy of its live spans.
func (t *Tracer) process() traceProc {
	if t == nil {
		return traceProc{pid: 1}
	}
	spans := t.Spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceProc{pid: t.pid, pname: t.pname, spans: spans}
}

// buildChromeTrace lays out one or more processes' spans: every
// process gets a process_name metadata record (when named), every
// distinct track within it one numbered thread.
func buildChromeTrace(procs ...traceProc) chromeTrace {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	for _, p := range procs {
		trackSet := make(map[string]bool)
		for _, s := range p.spans {
			trackSet[s.Track] = true
		}
		tracks := make([]string, 0, len(trackSet))
		for name := range trackSet {
			tracks = append(tracks, name)
		}
		sort.Strings(tracks)
		tid := make(map[string]int, len(tracks))
		for i, name := range tracks {
			tid[name] = i + 1
		}
		if p.pname != "" {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", PID: p.pid, TID: 0,
				Args: map[string]any{"name": p.pname},
			})
		}
		for _, name := range tracks {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: p.pid, TID: tid[name],
				Args: map[string]any{"name": name},
			})
		}
		for _, s := range p.spans {
			ev := chromeEvent{
				Name: s.Name,
				Cat:  s.Cat,
				Ph:   "X",
				TS:   float64(s.Start) / float64(time.Microsecond),
				Dur:  float64(s.Dur) / float64(time.Microsecond),
				PID:  p.pid,
				TID:  tid[s.Track],
			}
			if s.TraceID != 0 || s.Seq != 0 {
				ev.Args = map[string]any{"seq": s.Seq}
				if s.TraceID != 0 {
					ev.Args["trace_id"] = fmt.Sprintf("%016x", s.TraceID)
				}
			}
			out.TraceEvents = append(out.TraceEvents, ev)
			if s.Seq > out.LastSeq {
				out.LastSeq = s.Seq
			}
		}
	}
	return out
}

func encodeChromeTrace(w io.Writer, ct chromeTrace) error {
	if err := json.NewEncoder(w).Encode(ct); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}

// WriteChromeTrace emits the span buffer as Chrome trace-event JSON.
// Each distinct track becomes one numbered thread with a thread_name
// metadata record, so chrome://tracing renders one row per client or
// component. Traced spans carry their trace_id (hex) and seq in args.
// Safe on nil (writes an empty trace).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return encodeChromeTrace(w, buildChromeTrace(t.process()))
}

// writeChromeSpans emits an explicit span subset (a since/window page)
// under the tracer's process identity.
func (t *Tracer) writeChromeSpans(w io.Writer, spans []Span) error {
	p := t.process()
	p.spans = spans
	return encodeChromeTrace(w, buildChromeTrace(p))
}

// WriteMergedChromeTrace emits the union of several tracers — e.g. a
// client's and a server's — as one Chrome trace, one process per
// tracer. Give each tracer a distinct SetProcess pid/name first;
// iteration spans recorded on both sides then line up by trace_id.
func WriteMergedChromeTrace(w io.Writer, tracers ...*Tracer) error {
	procs := make([]traceProc, 0, len(tracers))
	for _, t := range tracers {
		procs = append(procs, t.process())
	}
	return encodeChromeTrace(w, buildChromeTrace(procs...))
}
