package nn

import (
	"math"
	"testing"

	"menos/internal/tensor"
)

// stateBytes is the optimizer-state footprint, the 𝕆 term of §2.3:
// SGD's velocity buffers, or Adam's first and second moments.
func stateBytes(opt Optimizer) int64 {
	var bufs []map[*tensor.Tensor]*tensor.Tensor
	switch o := opt.(type) {
	case *SGD:
		bufs = append(bufs, o.velocity)
	case *Adam:
		bufs = append(bufs, o.m, o.v)
	}
	var b int64
	for _, buf := range bufs {
		for _, x := range buf {
			b += x.Bytes()
		}
	}
	return b
}

// quadratic sets grad = 2*(value - target), the gradient of
// ||value - target||².
func quadraticGrad(p Param, target float32) {
	for i, v := range p.Value.Data() {
		p.Grad.Data()[i] = 2 * (v - target)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := NewParam("p", tensor.MustFromSlice([]float32{5, -3, 10}, 3))
	opt := NewSGD(0.1, 0)
	for i := 0; i < 200; i++ {
		quadraticGrad(p, 1)
		if err := opt.Step([]Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range p.Value.Data() {
		if math.Abs(float64(v)-1) > 1e-3 {
			t.Fatalf("param[%d] = %v, want 1", i, v)
		}
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	p := NewParam("p", tensor.MustFromSlice([]float32{4}, 1))
	opt := NewSGD(0.05, 0.9)
	for i := 0; i < 300; i++ {
		quadraticGrad(p, -2)
		if err := opt.Step([]Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(float64(p.Value.At(0))+2) > 1e-2 {
		t.Fatalf("param = %v, want -2", p.Value.At(0))
	}
	if stateBytes(opt) != 4 {
		t.Fatalf("state bytes = %d, want 4", stateBytes(opt))
	}
}

func TestSGDWithoutMomentumHasNoState(t *testing.T) {
	p := NewParam("p", tensor.New(10))
	opt := NewSGD(0.1, 0)
	quadraticGrad(p, 0)
	if err := opt.Step([]Param{p}); err != nil {
		t.Fatal(err)
	}
	if stateBytes(opt) != 0 {
		t.Fatalf("momentum-free SGD holds state: %d bytes", stateBytes(opt))
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("p", tensor.MustFromSlice([]float32{5, -3, 10, 0.5}, 4))
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		quadraticGrad(p, 2)
		if err := opt.Step([]Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range p.Value.Data() {
		if math.Abs(float64(v)-2) > 1e-2 {
			t.Fatalf("param[%d] = %v, want 2", i, v)
		}
	}
}

func TestAdamStateBytes(t *testing.T) {
	p := NewParam("p", tensor.New(100))
	opt := NewAdam(0.01)
	quadraticGrad(p, 0)
	if err := opt.Step([]Param{p}); err != nil {
		t.Fatal(err)
	}
	// m and v buffers: 2 * 100 floats * 4 bytes.
	if got := stateBytes(opt); got != 800 {
		t.Fatalf("state bytes = %d, want 800", got)
	}
}

func TestAdamWeightDecayPullsTowardZero(t *testing.T) {
	p := NewParam("p", tensor.MustFromSlice([]float32{1}, 1))
	opt := NewAdam(0.01)
	opt.WeightDecay = 0.5
	// Zero gradient: only decay acts.
	for i := 0; i < 100; i++ {
		if err := opt.Step([]Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	if v := p.Value.At(0); v >= 1 || v < 0 {
		t.Fatalf("weight decay did not shrink parameter: %v", v)
	}
}

func TestOptimizerNilParamErrors(t *testing.T) {
	bad := Param{Name: "bad"}
	if err := NewSGD(0.1, 0).Step([]Param{bad}); err == nil {
		t.Fatal("SGD accepted nil-value param")
	}
	if err := NewAdam(0.1).Step([]Param{bad}); err == nil {
		t.Fatal("Adam accepted nil-value param")
	}
}

func TestZeroGrads(t *testing.T) {
	p := NewParam("p", tensor.New(3))
	p.Grad.Fill(5)
	ZeroGrads([]Param{p})
	if p.Grad.MaxAbs() != 0 {
		t.Fatal("ZeroGrads left gradients")
	}
}

func TestPrefixed(t *testing.T) {
	ps := Prefixed("block0", []Param{NewParam("w", tensor.New(1))})
	if ps[0].Name != "block0.w" {
		t.Fatalf("Prefixed name = %q", ps[0].Name)
	}
}

func TestCacheBytes(t *testing.T) {
	var (
		lc  *LinearCache
		ec  *EmbeddingCache
		lnc *LayerNormCache
		rc  *RMSNormCache
		ac  *ActCache
	)
	// Nil caches report zero.
	if lc.Bytes()+ec.Bytes()+lnc.Bytes()+rc.Bytes()+ac.Bytes() != 0 {
		t.Fatal("nil caches report non-zero bytes")
	}
	full := &LinearCache{X: tensor.New(4, 4)}
	if full.Bytes() != 64 {
		t.Fatalf("LinearCache bytes = %d, want 64", full.Bytes())
	}
}
