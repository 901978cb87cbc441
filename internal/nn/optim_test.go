package nn

import (
	"math"
	"testing"

	"menos/internal/tensor"
)

// stateBytes is the optimizer-state footprint, the 𝕆 term of §2.3:
// Adam's first and second moments.
func stateBytes(o *Adam) int64 {
	var b int64
	for _, buf := range []map[*tensor.Tensor]*tensor.Tensor{o.m, o.v} {
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

func TestOptimizerNilParamErrors(t *testing.T) {
	bad := Param{Name: "bad"}
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
