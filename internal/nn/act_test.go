package nn

import (
	"errors"
	"math"
	"testing"

	"menos/internal/tensor"
)

// TestActivationLayerContract checks what the layer adds on top of the
// tensor kernels: gelu(0) = silu(0) = 0 exactly and no NaN at |x| = 100
// in either direction; the cache retains the input and nothing else
// (the backward recomputes σ, so ActCache.Bytes is what the memory
// model has always counted); outputs come from the arena when there is
// one; and a dy of the wrong size is an ErrShape, not a panic.
func TestActivationLayerContract(t *testing.T) {
	x, err := tensor.FromSlice([]float32{0, 100, -100, 0.5, -3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	dy := tensor.New(5)
	dy.Fill(1)
	layers := []struct {
		name     string
		forward  func(*tensor.Scratch, *tensor.Tensor, *ActCache) *tensor.Tensor
		backward func(*tensor.Scratch, *ActCache, *tensor.Tensor) (*tensor.Tensor, error)
	}{
		{"gelu", GELUScratch, GELUBackwardScratch},
		{"silu", SiLUScratch, SiLUBackwardScratch},
	}
	for _, l := range layers {
		for _, sc := range []*tensor.Scratch{nil, tensor.NewScratch()} {
			cache := &ActCache{}
			y := l.forward(sc, x, cache)
			if got := y.Data()[:3]; got[0] != 0 || got[1] != 100 || got[2] != 0 {
				t.Errorf("%s(0, 100, -100) = %v, want [0 100 0]", l.name, got)
			}
			if cache.X != x || cache.Bytes() != x.Bytes() {
				t.Errorf("%s cache retains %d bytes, want the input's %d", l.name, cache.Bytes(), x.Bytes())
			}
			dx, err := l.backward(sc, cache, dy)
			if err != nil {
				t.Fatal(err)
			}
			if got := dx.Data()[:3]; got[0] != 0.5 || got[1] != 1 || got[2] != 0 {
				t.Errorf("%s'(0, 100, -100) = %v, want [0.5 1 0]", l.name, got)
			}
			for i, v := range append(y.Data(), dx.Data()...) {
				if math.IsNaN(float64(v)) {
					t.Errorf("%s: NaN at %d", l.name, i)
				}
			}
			if _, err := l.backward(sc, cache, tensor.New(4)); !errors.Is(err, tensor.ErrShape) {
				t.Errorf("%s backward with a short dy: %v, want ErrShape", l.name, err)
			}
			if sc != nil {
				sc.Put(y, dx)
				if gets, hits := sc.Stats(); gets != 3 || hits != 0 {
					t.Errorf("%s drew %d buffers from the arena (%d reused), want 3 fresh", l.name, gets, hits)
				}
			}
		}
	}
}
