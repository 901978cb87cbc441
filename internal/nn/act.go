package nn

import (
	"fmt"

	"menos/internal/tensor"
)

// ActCache retains what the backward of an elementwise activation
// reads: the activation's derivative at the forward's input, which the
// grad forward computed from the same σ as the activation and wrote
// over that input. It holds exactly the input's bytes.
type ActCache struct {
	D *tensor.Tensor
}

// Bytes reports retained activation size.
func (c *ActCache) Bytes() int64 {
	if c == nil || c.D == nil {
		return 0
	}
	return c.D.Bytes()
}

// GELUScratch applies the Gaussian Error Linear Unit (tanh
// approximation, as used by OPT/GPT-style models), drawing its output
// from the given buffer arena (nil degrades to allocation). With a
// cache, x is overwritten with gelu'(x) and the cache keeps it: the
// caller hands x over.
func GELUScratch(sc *tensor.Scratch, x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	return activate(sc, x, cache, tensor.GELU, tensor.GELUWithDerivative)
}

// SiLUScratch applies x * sigmoid(x), the activation of Llama's SwiGLU
// feed-forward network, drawing its output from the given buffer arena
// (nil degrades to allocation). With a cache, x is overwritten with
// silu'(x) and the cache keeps it, as in GELUScratch.
func SiLUScratch(sc *tensor.Scratch, x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	return activate(sc, x, cache, tensor.SiLU, tensor.SiLUWithDerivative)
}

// ActBackwardScratch computes dx = dy ⊙ f'(x) for the activation f whose
// forward filled cache, drawing dx from the given buffer arena (nil
// degrades to allocation). The derivative is the one the forward kept,
// so this is one multiply.
func ActBackwardScratch(sc *tensor.Scratch, cache *ActCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil || cache.D == nil {
		return nil, fmt.Errorf("activation backward: no cached derivative")
	}
	dx := sc.GetUninit(cache.D.Shape()...)
	if err := tensor.Mul(dx, dy, cache.D); err != nil { // dy's length differs
		sc.Put(dx)
		return nil, err
	}
	return dx, nil
}

// activate runs one of the tensor package's activation kernels into a
// fresh output of x's shape: the plain one for a no-grad forward, the
// one that also writes the derivative over x when there is a cache.
func activate(sc *tensor.Scratch, x *tensor.Tensor, cache *ActCache, plain, withDeriv func(dst, x *tensor.Tensor) error) *tensor.Tensor {
	out := sc.GetUninit(x.Shape()...)
	kernel := plain
	if cache != nil {
		kernel = withDeriv
		cache.D = x
	}
	if err := kernel(out, x); err != nil {
		panic(err) // out was made with x's shape, and is not x
	}
	return out
}
