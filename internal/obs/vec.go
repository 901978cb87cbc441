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

// vec is the shared label-value → series map behind the three labeled
// family kinds. Lookup takes a read lock; creation takes the write
// lock once per label value. Callers on hot paths resolve the series
// handle once (per session / per client) and update it lock-free, the
// same contract as the unlabeled Registry handles.
type vec[M any] struct {
	label string
	cap   int
	mk    func() M

	mu     sync.RWMutex
	series map[string]M
}

func newVec[M any](label string, mk func() M) *vec[M] {
	return &vec[M]{label: label, cap: DefaultVecCap, mk: mk, series: make(map[string]M)}
}

func (v *vec[M]) with(value string) M {
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

// labels returns the registered label values in sorted order.
func (v *vec[M]) labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return sortedKeys(v.series)
}

func (v *vec[M]) get(value string) (M, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	m, ok := v.series[value]
	return m, ok
}

func (v *vec[M]) setCap(n int) {
	if n <= 0 {
		return
	}
	v.mu.Lock()
	v.cap = n
	v.mu.Unlock()
}

// CounterVec is a family of counters keyed by one label (the client
// ID). With resolves a series handle; past the cardinality cap, new
// label values share the VecOverflowLabel series.
type CounterVec struct {
	v *vec[*Counter]
}

// With returns the counter for the given label value, creating it on
// first use. Safe on nil (returns a nil, no-op Counter).
func (cv *CounterVec) With(value string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.with(value)
}

// Get returns the series for value without creating it. Safe on nil.
func (cv *CounterVec) Get(value string) (*Counter, bool) {
	if cv == nil {
		return nil, false
	}
	return cv.v.get(value)
}

// Labels returns the registered label values, sorted. Safe on nil.
func (cv *CounterVec) Labels() []string {
	if cv == nil {
		return nil
	}
	return cv.v.labels()
}

// Label returns the family's label key. Safe on nil.
func (cv *CounterVec) Label() string {
	if cv == nil {
		return ""
	}
	return cv.v.label
}

// SetCap adjusts the cardinality cap (setup-time knob; existing series
// are kept even if over the new cap). Safe on nil.
func (cv *CounterVec) SetCap(n int) {
	if cv != nil {
		cv.v.setCap(n)
	}
}

// GaugeVec is a family of gauges keyed by one label.
type GaugeVec struct {
	v *vec[*Gauge]
}

// With returns the gauge for the given label value, creating it on
// first use. Safe on nil.
func (gv *GaugeVec) With(value string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.v.with(value)
}

// Get returns the series for value without creating it. Safe on nil.
func (gv *GaugeVec) Get(value string) (*Gauge, bool) {
	if gv == nil {
		return nil, false
	}
	return gv.v.get(value)
}

// Labels returns the registered label values, sorted. Safe on nil.
func (gv *GaugeVec) Labels() []string {
	if gv == nil {
		return nil
	}
	return gv.v.labels()
}

// Label returns the family's label key. Safe on nil.
func (gv *GaugeVec) Label() string {
	if gv == nil {
		return ""
	}
	return gv.v.label
}

// SetCap adjusts the cardinality cap. Safe on nil.
func (gv *GaugeVec) SetCap(n int) {
	if gv != nil {
		gv.v.setCap(n)
	}
}

// HistogramVec is a family of histograms keyed by one label. All
// series share the bucket bounds given at registration.
type HistogramVec struct {
	v *vec[*Histogram]
}

// With returns the histogram for the given label value, creating it on
// first use. Safe on nil.
func (hv *HistogramVec) With(value string) *Histogram {
	if hv == nil {
		return nil
	}
	return hv.v.with(value)
}

// Get returns the series for value without creating it. Safe on nil.
func (hv *HistogramVec) Get(value string) (*Histogram, bool) {
	if hv == nil {
		return nil, false
	}
	return hv.v.get(value)
}

// Labels returns the registered label values, sorted. Safe on nil.
func (hv *HistogramVec) Labels() []string {
	if hv == nil {
		return nil
	}
	return hv.v.labels()
}

// Label returns the family's label key. Safe on nil.
func (hv *HistogramVec) Label() string {
	if hv == nil {
		return ""
	}
	return hv.v.label
}

// SetCap adjusts the cardinality cap. Safe on nil.
func (hv *HistogramVec) SetCap(n int) {
	if hv != nil {
		hv.v.setCap(n)
	}
}

// CounterVec returns the labeled counter family registered under name,
// creating it on first use with the given label key. A family may
// share its name with an unlabeled metric of the same kind: the text
// exposition then emits the unlabeled sample and the labeled series
// under one TYPE header, which is how per-client series sum up to the
// pre-existing aggregate. Safe on a nil registry.
func (r *Registry) CounterVec(name, label string, help ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cv, ok := r.counterVecs[name]
	if !ok {
		cv = &CounterVec{v: newVec(label, func() *Counter { return &Counter{} })}
		r.counterVecs[name] = cv
		r.setHelp(name, help)
	}
	return cv
}

// GaugeVec returns the labeled gauge family registered under name,
// creating it on first use. Safe on a nil registry.
func (r *Registry) GaugeVec(name, label string, help ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	gv, ok := r.gaugeVecs[name]
	if !ok {
		gv = &GaugeVec{v: newVec(label, func() *Gauge { return &Gauge{} })}
		r.gaugeVecs[name] = gv
		r.setHelp(name, help)
	}
	return gv
}

// HistogramVec returns the labeled histogram family registered under
// name, creating it on first use with the given bucket bounds. Later
// calls return the existing family regardless of the bounds argument.
// Safe on a nil registry.
func (r *Registry) HistogramVec(name, label string, bounds []float64, help ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	hv, ok := r.histVecs[name]
	if !ok {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		hv = &HistogramVec{v: newVec(label, func() *Histogram { return newHistogram(bs) })}
		r.histVecs[name] = hv
		r.setHelp(name, help)
	}
	return hv
}
