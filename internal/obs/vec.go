package obs

import "sync"

// VecOverflowLabel is the series that absorbs observations once a
// labeled family exceeds its cardinality cap. Aggregates stay exact —
// the sum over all series (including "other") always equals the
// unlabeled counterpart — only per-client attribution degrades.
const VecOverflowLabel = "other"

// DefaultVecCap bounds the number of distinct label values a family
// tracks before routing new values to the overflow series. Client IDs
// are the only label in use, and the paper's scale is tens of clients
// per server, so the default leaves ample headroom.
const DefaultVecCap = 64

// vec is the labeled part of a metric family: one label key and a
// label-value → series map, one type for all three kinds. Lookup takes
// a read lock; creation takes the write lock once per label value.
// Callers on hot paths resolve the series handle once (per session /
// per client) and update it lock-free, the same contract as the
// unlabeled Registry handles. Past the cardinality cap, new label
// values share the VecOverflowLabel series. Every method is safe on a
// nil vec (the nil registry's families).
type vec[M any] struct {
	label string
	cap   int
	mk    func() M

	mu     sync.RWMutex
	series map[string]M
}

// CounterVec is a family of counters keyed by one label (the client
// ID).
type CounterVec = vec[*Counter]

// GaugeVec is a family of gauges keyed by one label.
type GaugeVec = vec[*Gauge]

// HistogramVec is a family of histograms keyed by one label. All
// series share the bucket bounds given at registration.
type HistogramVec = vec[*Histogram]

func newVec[M any](label string, mk func() M) *vec[M] {
	return &vec[M]{label: label, cap: DefaultVecCap, mk: mk, series: make(map[string]M)}
}

// With returns the series for the given label value, creating it on
// first use. Safe on nil (returns a nil, no-op series).
func (v *vec[M]) With(value string) M {
	if v == nil {
		var none M
		return none
	}
	v.mu.RLock()
	m, ok := v.series[value]
	v.mu.RUnlock()
	if ok {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.withLocked(value)
}

func (v *vec[M]) withLocked(value string) M {
	if m, ok := v.series[value]; ok {
		return m
	}
	if value != VecOverflowLabel && len(v.series) >= v.cap {
		return v.withLocked(VecOverflowLabel)
	}
	m := v.mk()
	v.series[value] = m
	return m
}

// Get returns the series for value without creating it. Safe on nil.
func (v *vec[M]) Get(value string) (M, bool) {
	if v == nil {
		var none M
		return none, false
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	m, ok := v.series[value]
	return m, ok
}

// Labels returns the registered label values, sorted. Safe on nil.
func (v *vec[M]) Labels() []string {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return sortedKeys(v.series)
}

// Label returns the family's label key. Safe on nil.
func (v *vec[M]) Label() string {
	if v == nil {
		return ""
	}
	return v.label
}

// SetCap adjusts the cardinality cap (setup-time knob; existing series
// are kept even if over the new cap). Safe on nil.
func (v *vec[M]) SetCap(n int) {
	if v == nil || n <= 0 {
		return
	}
	v.mu.Lock()
	v.cap = n
	v.mu.Unlock()
}
