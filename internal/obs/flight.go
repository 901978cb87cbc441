package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// Flight-recorder reasons used by the serving plane.
const (
	FlightReasonShed      = "shed"      // admission control shed a submission
	FlightReasonOOM       = "oom"       // a request could never fit / was refused for memory
	FlightReasonAdmission = "admission" // admission state transition
	FlightReasonAlert     = "alert"     // a fleet alert rule began firing (menos-fleetd)
)

// FlightConfig configures a FlightRecorder.
type FlightConfig struct {
	// Dir is the directory holding the recorder's JSONL output
	// (created if missing). Required.
	Dir string
	// MinInterval rate-limits snapshots per reason (a shedding storm
	// triggers once per interval, not per request). <= 0 means 1s.
	MinInterval time.Duration
	// Clock supplies timestamps and the rate-limit timebase; the
	// simulator passes its virtual clock so snapshots are
	// deterministic. Nil means wall clock.
	Clock Clock
	// CaptureProfiles additionally writes a heap and a goroutine
	// profile (pprof proto, go-tool-pprof readable) next to the JSONL
	// on every snapshot, one file per profile kind and reason
	// (overwritten in place, so disk use stays bounded). Off by
	// default: profile bytes are inherently nondeterministic, so the
	// simulator never enables this — the daemons gate it behind -pprof.
	CaptureProfiles bool
}

// The recorder's fixed bounds.
const (
	// flightMaxBytes bounds the active file; on overflow it rotates to
	// flight.jsonl.1 (replacing any previous rotation), so total disk
	// use stays under ~2x flightMaxBytes.
	flightMaxBytes = 8 << 20
	// flightWindow is the trailing trace window each snapshot captures.
	flightWindow = 30 * time.Second
)

// flightRecord is one JSONL line: why the snapshot fired, when, the
// trace window, and the full metrics state at that instant.
type flightRecord struct {
	AtSeconds float64         `json:"at_seconds"`
	Reason    string          `json:"reason"`
	Spans     []flightSpan    `json:"spans"`
	Metrics   json.RawMessage `json:"metrics,omitempty"`
	// Profiles lists the heap/goroutine profile files (relative to the
	// flight dir) captured alongside this record, when
	// FlightConfig.CaptureProfiles is on.
	Profiles []string `json:"profiles,omitempty"`
}

type flightSpan struct {
	Track   string  `json:"track"`
	Name    string  `json:"name"`
	Cat     string  `json:"cat"`
	TraceID string  `json:"trace_id,omitempty"`
	Seq     uint64  `json:"seq"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// FlightRecorder snapshots the recent trace window plus a metrics dump
// to a size-bounded on-disk JSONL whenever the serving plane hits an
// anomaly (shed, OOM, admission transition) — a postmortem of the
// moments leading up to an overload event, without tracing everything
// to disk all the time.
type FlightRecorder struct {
	cfg    FlightConfig
	reg    *Registry
	tracer *Tracer
	// maxBytes is flightMaxBytes; the package's rotation tests lower it.
	maxBytes int64

	mu      sync.Mutex
	f       *os.File
	size    int64
	last    map[string]time.Duration
	lastErr error
	closed  bool

	// ch is never closed (TriggerAsync may race with Close); quit stops
	// the drain goroutine instead.
	ch   chan string
	quit chan struct{}
	done chan struct{}
}

// NewFlightRecorder opens (or creates) cfg.Dir/flight.jsonl and
// returns a recorder snapshotting reg and tracer. Either may be nil
// (the corresponding section is omitted from records).
func NewFlightRecorder(cfg FlightConfig, reg *Registry, tracer *Tracer) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a directory")
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(cfg.Dir, "flight.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: flight file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: flight file: %w", err)
	}
	r := &FlightRecorder{
		cfg:      cfg,
		reg:      reg,
		tracer:   tracer,
		maxBytes: flightMaxBytes,
		f:        f,
		size:     st.Size(),
		last:     make(map[string]time.Duration),
		ch:       make(chan string, 16),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.drain()
	return r, nil
}

// Path returns the active JSONL file. Safe on nil.
func (r *FlightRecorder) Path() string {
	if r == nil {
		return ""
	}
	return filepath.Join(r.cfg.Dir, "flight.jsonl")
}

// Err returns the most recent write error (async triggers cannot
// return one). Safe on nil.
func (r *FlightRecorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Trigger snapshots synchronously. The simulator uses this so records
// land deterministically in virtual-time order. Rate-limited per
// reason; a skipped (rate-limited) trigger returns nil. Safe on nil.
func (r *FlightRecorder) Trigger(reason string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(reason)
}

// TriggerAsync queues a snapshot without blocking the caller — the
// serving hot path's entry point. Drops the trigger if the queue is
// full (the rate limiter would have coalesced it anyway). Safe on nil.
func (r *FlightRecorder) TriggerAsync(reason string) {
	if r == nil {
		return
	}
	select {
	case r.ch <- reason:
	default:
	}
}

// Close drains pending async triggers and closes the file. Further
// Trigger calls error and TriggerAsync calls are ignored; Close is
// idempotent. Safe on nil.
func (r *FlightRecorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.quit)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.f.Close()
	r.f = nil
	return err
}

func (r *FlightRecorder) drain() {
	defer close(r.done)
	snap := func(reason string) {
		r.mu.Lock()
		if err := r.snapshotLocked(reason); err != nil {
			r.lastErr = err
		}
		r.mu.Unlock()
	}
	for {
		select {
		case reason := <-r.ch:
			snap(reason)
		case <-r.quit:
			// Flush whatever was queued before the shutdown signal.
			for {
				select {
				case reason := <-r.ch:
					snap(reason)
				default:
					return
				}
			}
		}
	}
}

// snapshotLocked writes one record, rotating first if the active file
// is over budget. Caller holds r.mu.
func (r *FlightRecorder) snapshotLocked(reason string) error {
	if r.f == nil {
		return fmt.Errorf("obs: flight recorder closed")
	}
	now := r.cfg.Clock.Now()
	if last, ok := r.last[reason]; ok && now-last < r.cfg.MinInterval {
		return nil
	}
	r.last[reason] = now

	rec := flightRecord{
		AtSeconds: now.Seconds(),
		Reason:    reason,
		Spans:     []flightSpan{},
	}
	for _, s := range r.tracer.SpansWindow(flightWindow) {
		fs := flightSpan{
			Track:   s.Track,
			Name:    s.Name,
			Cat:     s.Cat,
			Seq:     s.Seq,
			StartUS: float64(s.Start) / float64(time.Microsecond),
			DurUS:   float64(s.Dur) / float64(time.Microsecond),
		}
		if s.TraceID != 0 {
			fs.TraceID = fmt.Sprintf("%016x", s.TraceID)
		}
		rec.Spans = append(rec.Spans, fs)
	}
	if r.reg != nil {
		var mb bytes.Buffer
		if err := r.reg.WriteJSON(&mb); err == nil {
			rec.Metrics = json.RawMessage(bytes.TrimSpace(mb.Bytes()))
		}
	}
	if r.cfg.CaptureProfiles {
		rec.Profiles = r.captureProfilesLocked(reason)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: flight record: %w", err)
	}
	line = append(line, '\n')

	if r.size+int64(len(line)) > r.maxBytes && r.size > 0 {
		if err := r.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := r.f.Write(line)
	r.size += int64(n)
	if err != nil {
		return fmt.Errorf("obs: flight write: %w", err)
	}
	return nil
}

// captureProfilesLocked writes the current heap and goroutine profiles
// into the flight dir, named per profile kind and trigger reason so a
// repeat trigger overwrites its predecessor rather than accumulating.
// Returns the file names written (relative to the dir). Errors are
// recorded in lastErr but do not fail the snapshot — the JSONL record
// is the primary artifact. Caller holds r.mu.
func (r *FlightRecorder) captureProfilesLocked(reason string) []string {
	var out []string
	for _, kind := range []string{"heap", "goroutine"} {
		prof := pprof.Lookup(kind)
		if prof == nil {
			continue
		}
		name := kind + "-" + sanitizeReason(reason) + ".pb.gz"
		f, err := os.Create(filepath.Join(r.cfg.Dir, name))
		if err != nil {
			r.lastErr = fmt.Errorf("obs: flight profile: %w", err)
			continue
		}
		err = prof.WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			r.lastErr = fmt.Errorf("obs: flight profile: %w", err)
			continue
		}
		out = append(out, name)
	}
	return out
}

// sanitizeReason keeps profile file names flat even if a caller passes
// a reason containing path separators.
func sanitizeReason(reason string) string {
	return strings.Map(func(c rune) rune {
		switch c {
		case '/', '\\', ':', ' ':
			return '-'
		}
		return c
	}, reason)
}

// rotateLocked moves the active file to flight.jsonl.1 (replacing any
// previous rotation) and starts a fresh one, bounding total disk use
// at ~2x maxBytes. Caller holds r.mu.
func (r *FlightRecorder) rotateLocked() error {
	active := filepath.Join(r.cfg.Dir, "flight.jsonl")
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("obs: flight rotate: %w", err)
	}
	if err := os.Rename(active, active+".1"); err != nil {
		return fmt.Errorf("obs: flight rotate: %w", err)
	}
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("obs: flight rotate: %w", err)
	}
	r.f = f
	r.size = 0
	return nil
}
