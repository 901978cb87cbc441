package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Lookup (get-or-create) takes the
// registry lock; the returned handles are lock-free afterwards, so
// instrumented code resolves its metrics once and updates them on the
// hot path with single atomic operations.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*family[*Counter]
	gauges   map[string]*family[*Gauge]
	hists    map[string]*family[*Histogram]
}

// family is every series of one kind that shares a metric name: the
// unlabeled series, the labeled ones (vec.go), or both. A name carries
// both when a quantity is reported as an aggregate and per client; the
// exporters write the two under one TYPE header.
type family[M comparable] struct {
	help  string
	plain M       // zero until registered
	vec   *vec[M] // nil until registered
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*family[*Counter]),
		gauges:   make(map[string]*family[*Gauge]),
		hists:    make(map[string]*family[*Histogram]),
	}
}

// lookup is the registry's one get-or-create: it returns the series
// that slot picks from name's family in fams, filling it with mk on
// first use. The series' creation records an optional help string as
// the family's HELP text.
func lookup[M, S comparable](r *Registry, fams map[string]*family[M], name string, help []string, slot func(*family[M]) *S, mk func() S) S {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := fams[name]
	if !ok {
		f = &family[M]{}
		fams[name] = f
	}
	s := slot(f)
	var none S
	if *s == none {
		*s = mk()
		if len(help) > 0 && help[0] != "" {
			f.help = help[0]
		}
	}
	return *s
}

// plain and labeled are lookup's two slots.
func plain[M comparable](f *family[M]) *M         { return &f.plain }
func labeled[M comparable](f *family[M]) **vec[M] { return &f.vec }

// Counter returns the counter registered under name, creating it on
// first use. An optional help string documents the metric in the
// Prometheus exposition. Safe on a nil registry (returns nil, and all
// Counter methods are nil-safe).
func (r *Registry) Counter(name string, help ...string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, help, plain, newCounter)
}

// Gauge returns the gauge registered under name, creating it on first
// use. Safe on a nil registry.
func (r *Registry) Gauge(name string, help ...string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, help, plain, newGauge)
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use. Later calls return
// the existing histogram regardless of the bounds argument. Safe on a
// nil registry.
func (r *Registry) Histogram(name string, bounds []float64, help ...string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name, help, plain, func() *Histogram { return newHistogram(bounds) })
}

// CounterVec returns the labeled counters registered under name,
// creating them on first use with the given label key. They may share
// the name with an unlabeled counter: the text exposition then emits
// the unlabeled sample and the labeled series under one TYPE header,
// which is how per-client series sum up to the aggregate. Safe on a
// nil registry.
func (r *Registry) CounterVec(name, label string, help ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, help, labeled, func() *CounterVec { return newVec(label, newCounter) })
}

// GaugeVec returns the labeled gauges registered under name, creating
// them on first use. Safe on a nil registry.
func (r *Registry) GaugeVec(name, label string, help ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, help, labeled, func() *GaugeVec { return newVec(label, newGauge) })
}

// HistogramVec returns the labeled histograms registered under name,
// creating them on first use with the given bucket bounds, which may
// differ from a same-named unlabeled histogram's. Later calls return
// the existing family regardless of the bounds argument. Safe on a nil
// registry.
func (r *Registry) HistogramVec(name, label string, bounds []float64, help ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name, help, labeled, func() *HistogramVec {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		return newVec(label, func() *Histogram { return newHistogram(bs) })
	})
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

func newCounter() *Counter { return &Counter{} }

// Inc adds one. Safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Safe on nil (returns 0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer metric (queue depth, bytes in
// use). It supports both absolute sets and deltas, plus a monotonic
// watermark update for peak tracking.
type Gauge struct {
	v atomic.Int64
}

func newGauge() *Gauge { return &Gauge{} }

// Set stores v. Safe on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add applies a delta. Safe on nil.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// SetMax raises the gauge to v if v is larger (high-water mark). Safe
// on nil.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value. Safe on nil (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with a float sum, in the
// Prometheus cumulative-bucket style. Bounds are upper bounds in
// ascending order; one implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64

	// Exemplar: the trace ID behind the most recent extreme
	// observation (highest bucket seen so far), so "what iteration is
	// my p99?" is answerable from /metrics.json alone. exBucket stores
	// bucket index + 1 (0 = no exemplar yet).
	exBucket atomic.Int64
	exTrace  atomic.Uint64
	exVal    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records one sample and, when traceID is nonzero,
// offers it as the histogram's exemplar: the exemplar tracks the most
// recent observation landing in the highest bucket seen so far, i.e.
// the trace behind the current tail. Races between concurrent extreme
// observations resolve last-writer-wins, which is fine for a debugging
// pointer. Safe on nil.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	if traceID != 0 && int64(i+1) >= h.exBucket.Load() {
		h.exBucket.Store(int64(i + 1))
		h.exTrace.Store(traceID)
		h.exVal.Store(math.Float64bits(v))
	}
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Exemplar returns the trace ID and value of the current exemplar, or
// ok=false if no traced observation has been recorded. Safe on nil.
func (h *Histogram) Exemplar() (traceID uint64, v float64, ok bool) {
	if h == nil || h.exBucket.Load() == 0 {
		return 0, 0, false
	}
	return h.exTrace.Load(), math.Float64frombits(h.exVal.Load()), true
}

// exemplarInfo returns the exemplar plus the index of the bucket it
// landed in (len(bounds) = the +Inf bucket), for the text exposition's
// per-bucket exemplar suffix. Safe on nil.
func (h *Histogram) exemplarInfo() (bucket int, traceID uint64, v float64, ok bool) {
	if h == nil {
		return 0, 0, 0, false
	}
	b := h.exBucket.Load()
	if b == 0 {
		return 0, 0, 0, false
	}
	return int(b - 1), h.exTrace.Load(), math.Float64frombits(h.exVal.Load()), true
}

// Count returns the number of observations. Safe on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations. Safe on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot returns a consistent-enough copy for export and quantile
// estimation. (Bucket counts are read individually; under concurrent
// writes the snapshot may be off by in-flight observations, which is
// the standard scrape semantics.)
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the owning bucket. Safe on nil (returns 0).
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistSnapshot is a point-in-time histogram copy.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1; last is +Inf
	Sum    float64
	Count  int64
}

// Quantile estimates the q-quantile by linear interpolation within the
// bucket containing the target rank. Samples in the +Inf bucket clamp
// to the largest finite bound (the estimate cannot exceed it).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(s.Bounds) {
			// Overflow bucket: no finite upper bound to interpolate to.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// DurationBuckets are histogram bounds in seconds spanning 10µs to
// ~17min, suitable for both microsecond-scale scheduler decisions and
// the paper's 100-second iteration times.
func DurationBuckets() []float64 {
	return []float64{
		10e-6, 100e-6, 1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3,
		1, 2, 5, 10, 30, 60, 120, 300, 600, 1000,
	}
}

// formatFloat renders a float the way the Prometheus text format
// expects (no exponent for typical values, %g otherwise).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
