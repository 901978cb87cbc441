package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("get-or-create returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("SetMax = %d, want 11", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// All of these must be no-ops, not panics.
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", DurationBuckets()).Observe(1)
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.SetMax(5)
	var h *Histogram
	h.Observe(1)
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has a quantile")
	}
	var tr *Tracer
	tr.Begin("a", SpanKind{"b", "c"}).End()
	tr.RecordT("a", SpanKind{"b", "c"}, 0, 0, 0)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded spans")
	}
}

// TestHistogramQuantile checks the interpolated estimates against a
// reference sort: every estimate must land within one bucket width of
// the exact empirical quantile.
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}
	h := newHistogram(bounds)
	rng := rand.New(rand.NewSource(42))
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over (1e-4, 10): exercises every bucket.
		vals[i] = math.Pow(10, -4+5*rng.Float64())
		h.Observe(vals[i])
	}
	sort.Float64s(vals)

	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		exact := vals[int(q*float64(n-1))]
		est := h.Quantile(q)
		// The estimate must be inside the bucket containing the exact
		// value (linear interpolation cannot do better than that).
		i := sort.SearchFloat64s(bounds, exact)
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[len(bounds)-1]
		if i < len(bounds) {
			hi = bounds[i]
		}
		if est < lo || est > hi {
			t.Errorf("q=%.2f: estimate %g outside bucket [%g, %g] of exact %g", q, est, lo, hi, exact)
		}
	}

	if got := h.Count(); got != int64(n) {
		t.Fatalf("count = %d, want %d", got, n)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if diff := math.Abs(h.Sum() - sum); diff > 1e-6*sum {
		t.Fatalf("sum = %g, want %g", h.Sum(), sum)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	h.Observe(100) // lands in +Inf bucket
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %g, want clamp to 2", got)
	}
}

// TestConcurrentStress hammers one counter, gauge and histogram from
// many goroutines; totals must be exact. Run under -race this also
// proves the registry is data-race free.
func TestConcurrentStress(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Resolve handles inside the goroutine: get-or-create must
			// be safe concurrently too.
			c := r.Counter("stress_total")
			g := r.Gauge("stress_gauge")
			h := r.Histogram("stress_seconds", DurationBuckets())
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.SetMax(int64(i))
				h.Observe(rng.Float64())
			}
		}(int64(w))
	}
	wg.Wait()

	if got := r.Counter("stress_total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("stress_seconds", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	s := r.Histogram("stress_seconds", nil).Snapshot()
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}
