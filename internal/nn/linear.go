package nn

import (
	"fmt"

	"menos/internal/tensor"
)

// Linear is a fully connected layer computing y = x @ W (+ b).
// W has shape (in, out); x is (rows, in); y is (rows, out).
type Linear struct {
	W Param
	B Param // B.Value == nil when the layer has no bias

	// Frozen marks the layer's parameters as base-model weights: the
	// backward pass still propagates dx through them but never
	// accumulates weight gradients. This is the mechanical core of
	// adapter-based fine-tuning (§2.1).
	Frozen bool

	// scratch, when set, supplies the output tensors of Forward and
	// Backward from a shared buffer arena instead of the allocator.
	// Ownership of those outputs rests with the caller, exactly as for
	// freshly allocated ones.
	scratch *tensor.Scratch
}

// SetScratch attaches a buffer arena to the layer.
func (l *Linear) SetScratch(sc *tensor.Scratch) { l.scratch = sc }

// LinearCache retains the forward input needed by the backward pass.
type LinearCache struct {
	X *tensor.Tensor
}

// Bytes reports the retained activation size.
func (c *LinearCache) Bytes() int64 {
	if c == nil || c.X == nil {
		return 0
	}
	return c.X.Bytes()
}

// NewLinear creates a Linear layer with Xavier-initialized weights and,
// if bias is true, a zero bias.
func NewLinear(rng *tensor.RNG, in, out int, bias bool) *Linear {
	return LinearOf(tensor.NewXavier(rng, in, out), bias)
}

// LinearOf makes w, of shape (in, out), the weight of a Linear layer
// with, if bias is true, a zero bias.
func LinearOf(w *tensor.Tensor, bias bool) *Linear {
	l := &Linear{W: NewParam("w", w)}
	if bias {
		l.B = NewParam("b", tensor.New(w.Dim(1)))
	}
	return l
}

// In returns the input feature dimension.
func (l *Linear) In() int { return l.W.Value.Dim(0) }

// Out returns the output feature dimension.
func (l *Linear) Out() int { return l.W.Value.Dim(1) }

// Forward computes y = x @ W (+ b). When cache is non-nil, the input is
// retained for Backward; when nil, this is a no-grad forward.
func (l *Linear) Forward(x *tensor.Tensor, cache *LinearCache) (*tensor.Tensor, error) {
	if x.Rank() != 2 || x.Dim(1) != l.In() {
		return nil, fmt.Errorf("linear: input %v incompatible with weight %v: %w",
			x.Shape(), l.W.Value.Shape(), tensor.ErrShape)
	}
	y := l.scratch.GetUninit(x.Dim(0), l.Out())
	if err := tensor.MatMulBias(y, x, l.W.Value, l.B.Value); err != nil {
		return nil, fmt.Errorf("linear forward: %w", err)
	}
	if cache != nil {
		cache.X = x
	}
	return y, nil
}

// Backward propagates dy to dx and, unless the layer is frozen,
// accumulates weight and bias gradients.
func (l *Linear) Backward(cache *LinearCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil || cache.X == nil {
		return nil, fmt.Errorf("linear backward: no cached activations (was Forward called with a cache?)")
	}
	x := cache.X
	if dy.Rank() != 2 || dy.Dim(0) != x.Dim(0) || dy.Dim(1) != l.Out() {
		return nil, fmt.Errorf("linear backward: dy %v for x %v, out %d: %w",
			dy.Shape(), x.Shape(), l.Out(), tensor.ErrShape)
	}
	if !l.Frozen {
		// dW += xᵀ @ dy
		if err := tensor.MatMulTAccum(l.W.Grad, x, dy); err != nil {
			return nil, fmt.Errorf("linear dW: %w", err)
		}
		if l.B.Value != nil {
			if err := tensor.SumRows(l.B.Grad, dy); err != nil {
				return nil, fmt.Errorf("linear dB: %w", err)
			}
		}
	}
	// dx = dy @ Wᵀ
	dx := l.scratch.GetUninit(x.Dim(0), l.In())
	if err := tensor.MatMulT(dx, dy, l.W.Value); err != nil {
		return nil, fmt.Errorf("linear dx: %w", err)
	}
	return dx, nil
}

// Params returns the layer's trainable parameters; empty when frozen.
func (l *Linear) Params() []Param {
	if l.Frozen {
		return nil
	}
	ps := []Param{l.W}
	if l.B.Value != nil {
		ps = append(ps, l.B)
	}
	return ps
}
