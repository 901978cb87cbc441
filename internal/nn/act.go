package nn

import (
	"fmt"

	"menos/internal/tensor"
)

// ActCache retains the input of an elementwise activation.
type ActCache struct {
	X *tensor.Tensor
}

// Bytes reports retained activation size.
func (c *ActCache) Bytes() int64 {
	if c == nil || c.X == nil {
		return 0
	}
	return c.X.Bytes()
}

// GELU applies the Gaussian Error Linear Unit (tanh approximation, as
// used by OPT/GPT-style models).
func GELU(x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	return GELUScratch(nil, x, cache)
}

// GELUScratch is GELU drawing its output from the given buffer arena
// (nil degrades to allocation).
func GELUScratch(sc *tensor.Scratch, x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	return activate(sc, x, cache, tensor.GELU)
}

// GELUBackward computes dx = dy * gelu'(x).
func GELUBackward(cache *ActCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	return GELUBackwardScratch(nil, cache, dy)
}

// GELUBackwardScratch is GELUBackward drawing dx from the given buffer
// arena (nil degrades to allocation).
func GELUBackwardScratch(sc *tensor.Scratch, cache *ActCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	return activateGrad("gelu", sc, cache, dy, tensor.GELUBackward)
}

// SiLUScratch applies x * sigmoid(x), the activation of Llama's SwiGLU
// feed-forward network, drawing its output from the given buffer arena
// (nil degrades to allocation).
func SiLUScratch(sc *tensor.Scratch, x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	return activate(sc, x, cache, tensor.SiLU)
}

// SiLUBackwardScratch computes dx = dy * silu'(x), drawing dx from the
// given buffer arena (nil degrades to allocation).
func SiLUBackwardScratch(sc *tensor.Scratch, cache *ActCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	return activateGrad("silu", sc, cache, dy, tensor.SiLUBackward)
}

// activate runs one of the tensor package's activation kernels into a
// fresh output of x's shape and retains x for the backward pass. The
// backward recomputes σ from x, so nothing else is cached.
func activate(sc *tensor.Scratch, x *tensor.Tensor, cache *ActCache, kernel func(dst, a *tensor.Tensor) error) *tensor.Tensor {
	out := sc.GetUninit(x.Shape()...)
	if err := kernel(out, x); err != nil {
		panic(err) // out was made with x's shape
	}
	if cache != nil {
		cache.X = x
	}
	return out
}

func activateGrad(name string, sc *tensor.Scratch, cache *ActCache, dy *tensor.Tensor, kernel func(dx, x, dy *tensor.Tensor) error) (*tensor.Tensor, error) {
	if cache == nil || cache.X == nil {
		return nil, fmt.Errorf("%s backward: no cached activations", name)
	}
	dx := sc.GetUninit(cache.X.Shape()...)
	if err := kernel(dx, cache.X, dy); err != nil { // dy's length differs
		sc.Put(dx)
		return nil, err
	}
	return dx, nil
}
