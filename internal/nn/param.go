// Package nn implements neural-network layers with explicit, manually
// derived backward passes and explicit activation caches.
//
// The cache design mirrors the memory behaviour Menos exploits:
//
//   - Forward(x) with a nil cache is the paper's "non-gradient
//     environment" forward — no intermediate results are retained.
//   - Forward(x) with a cache retains exactly the activations the
//     backward pass needs; Cache.Bytes() is the 𝕀 term of §2.3.
//   - Dropping the cache is the "release GPU memory" step of Fig. 3.
//
// Every layer distinguishes frozen (base-model) parameters, which never
// accumulate gradients, from trainable (adapter) parameters.
package nn

import (
	"fmt"

	"menos/internal/tensor"
)

// Param is a named trainable parameter together with its gradient
// accumulator. Grad always has the same shape as Value.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter and a zeroed gradient of the same
// shape.
func NewParam(name string, value *tensor.Tensor) Param {
	return Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Shape()...),
	}
}

// ZeroGrads zeroes the gradients of all params.
func ZeroGrads(params []Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// Prefixed returns params with name prefixed by "prefix.", used when a
// module aggregates sub-module parameters.
func Prefixed(prefix string, params []Param) []Param {
	out := make([]Param, len(params))
	for i, p := range params {
		out[i] = Param{
			Name:  fmt.Sprintf("%s.%s", prefix, p.Name),
			Value: p.Value,
			Grad:  p.Grad,
		}
	}
	return out
}
