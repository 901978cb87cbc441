package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one client iteration share a Trace ("s<session>/i<iteration>").
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder's epoch
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how an untraced run pays nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one finished span and returns its id for use as a parent.
func (r *recorder) add(name, trace string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// timed runs fn inside a root span.
func (r *recorder) timed(name, trace string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.add(name, trace, 0, start, time.Now())
	return err
}

// spanSummary is the per-name roll-up written beside the raw spans.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is total minus the time covered by child spans.
	SelfMs float64 `json:"self_ms"`
}

func (r *recorder) summarize() map[string]spanSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]spanSummary{}
	for _, s := range r.spans {
		d := s.EndNs - s.StartNs
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += float64(d) / 1e6
		sum.SelfMs += float64(d-children[s.ID]) / 1e6
		out[s.Name] = sum
	}
	return out
}

// write dumps every span and the roll-up as one JSON document.
func (r *recorder) write(path string) error {
	summary := r.summarize()
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	b, err := json.Marshal(struct {
		Spans   []span                 `json:"spans"`
		Summary map[string]spanSummary `json:"summary"`
	}{spans, summary})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
