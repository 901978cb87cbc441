package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// pinRegistry scripts a registry that exercises every exposition
// shape: each kind plain-only, labeled-only and both under one name;
// HELP text and label values that need escaping; a family past its
// cap; exemplars on plain and labeled histograms; and a histogram
// registered plain with bounds, then labeled with other bounds.
func pinRegistry() *Registry {
	r := NewRegistry()

	// Counters.
	r.Counter("menos_pin_plain_total", "plain\\counter\nsecond line").Add(3)
	cv := r.CounterVec("menos_pin_vec_total", "client", "labeled counter")
	cv.With("b").Add(2)
	cv.With("a").Inc()
	cv.With("q\"uo\\te\nnl").Add(5)
	r.Counter("menos_pin_both_total", "aggregate").Add(9)
	both := r.CounterVec("menos_pin_both_total", "client", "per-client and aggregate")
	both.With("c2").Add(4)
	both.With("c1").Add(5)
	capped := r.CounterVec("menos_pin_capped_total", "client")
	capped.SetCap(2)
	for i, id := range []string{"d", "a", "c", "b", VecOverflowLabel} {
		capped.With(id).Add(int64(i + 1))
	}
	r.CounterVec("menos_pin_empty_total", "client", "no series yet")

	// Gauges.
	r.Gauge("menos_pin_plain_bytes").Set(-7)
	gv := r.GaugeVec("menos_pin_vec_bytes", "owner", "labeled gauge")
	gv.With("persistent:base").Set(1 << 20)
	gv.With("transient:c1").SetMax(12)
	r.Gauge("menos_pin_both_bytes", "gauge aggregate").Set(30)
	gb := r.GaugeVec("menos_pin_both_bytes", "client")
	gb.With("z").Set(10)
	gb.With("y").Set(20)

	// Histograms.
	h := r.Histogram("menos_pin_plain_seconds", []float64{1, 0.1, 10}, "plain histogram")
	h.Observe(0.05)
	h.ObserveExemplar(2.5, 0xabc)
	h.Observe(400)
	hv := r.HistogramVec("menos_pin_vec_seconds", "client", []float64{0.5, 5})
	hv.With("b").ObserveExemplar(0.25, 0x1)
	hv.With("a").Observe(3)
	hv.With("a").ObserveExemplar(9, 0xfeed)
	hb := r.Histogram("menos_pin_both_seconds", []float64{0.1, 1}, "histogram aggregate")
	hb.Observe(0.5)
	hb.ObserveExemplar(0.05, 0x77)
	hbv := r.HistogramVec("menos_pin_both_seconds", "client", []float64{2, 20, 200})
	hbv.SetCap(1)
	hbv.With("x").Observe(15)
	hbv.With("w\\").ObserveExemplar(250, 0x99)
	return r
}

// TestExpositionIsPinned holds the SHA-256 of the text and JSON
// exposition of pinRegistry, so a change to how the registry stores
// or walks its series cannot move a byte of either scrape.
func TestExpositionIsPinned(t *testing.T) {
	r := pinRegistry()
	for _, c := range []struct {
		name  string
		write func(*strings.Builder) error
		want  string
	}{
		{"prometheus", func(b *strings.Builder) error { return r.WritePrometheus(b) }, "25cbb24fd9a3674c6ca8c1f56bccb53dc8e8227a8f12450b7f2cbceaec9b4dd3"},
		{"json", func(b *strings.Builder) error { return r.WriteJSON(b) }, "eec4969bb2c1c436c6714f780403840a4f5d901f7d83aeb3488fca072e5c4300"},
	} {
		var b strings.Builder
		if err := c.write(&b); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s exposition sha256 = %s, want %s\n%s", c.name, got, c.want, b.String())
		}
	}
}
