package nn

import (
	"fmt"

	"menos/internal/tensor"
)

// Op is a differentiable tensor operator with an opaque activation
// cache. It exists so higher layers (transformer blocks) can treat a
// plain Linear and an adapter-wrapped Linear (e.g. LoRA) uniformly:
// the adapter packages wrap an Op without the block knowing.
//
// Apply with withGrad=false is a no-grad forward: it returns a nil
// cache and retains nothing, which is how Menos performs the first
// forward pass of Fig. 3(d).
type Op interface {
	// Apply runs the forward computation. When withGrad is true the
	// returned cache holds the activations Grad needs.
	Apply(x *tensor.Tensor, withGrad bool) (y *tensor.Tensor, cache any, err error)
	// Grad back-propagates dy using a cache produced by Apply.
	Grad(cache any, dy *tensor.Tensor) (dx *tensor.Tensor, err error)
	// Params returns the operator's trainable parameters.
	Params() []Param
	// SetFrozen toggles base-parameter training.
	SetFrozen(frozen bool)
}

// SizedCache is implemented by all activation caches so callers can
// account for intermediate-result memory (the 𝕀 term of §2.3).
type SizedCache interface {
	Bytes() int64
}

// CacheBytes returns the size of an opaque cache, or 0 when the cache
// is nil or unsized.
func CacheBytes(cache any) int64 {
	if cache == nil {
		return 0
	}
	if s, ok := cache.(SizedCache); ok {
		return s.Bytes()
	}
	return 0
}

// ScratchUser is implemented by layers that can draw their output
// tensors from a shared buffer arena instead of the allocator. Model
// code attaches its step-scoped arena to every layer that supports it;
// layers without an arena keep allocating, so the interface is purely
// an optimization hook.
type ScratchUser interface {
	SetScratch(sc *tensor.Scratch)
}

// Op conformance for the basic layers.
var (
	_ Op = (*Linear)(nil)
	_ Op = (*LayerNorm)(nil)
	_ Op = (*RMSNorm)(nil)

	_ ScratchUser = (*Linear)(nil)
	_ ScratchUser = (*LayerNorm)(nil)
	_ ScratchUser = (*RMSNorm)(nil)
	_ ScratchUser = (*Embedding)(nil)
)

// Apply implements Op for Linear.
func (l *Linear) Apply(x *tensor.Tensor, withGrad bool) (*tensor.Tensor, any, error) {
	if !withGrad {
		y, err := l.Forward(x, nil)
		return y, nil, err
	}
	cache := &LinearCache{}
	y, err := l.Forward(x, cache)
	if err != nil {
		return nil, nil, err
	}
	return y, cache, nil
}

// Grad implements Op for Linear.
func (l *Linear) Grad(cache any, dy *tensor.Tensor) (*tensor.Tensor, error) {
	c, ok := cache.(*LinearCache)
	if !ok {
		return nil, fmt.Errorf("linear: unexpected cache type %T", cache)
	}
	return l.Backward(c, dy)
}

// SetFrozen implements Op for Linear.
func (l *Linear) SetFrozen(frozen bool) { l.Frozen = frozen }

// Apply implements Op for LayerNorm.
func (l *LayerNorm) Apply(x *tensor.Tensor, withGrad bool) (*tensor.Tensor, any, error) {
	if !withGrad {
		y, err := l.Forward(x, nil)
		return y, nil, err
	}
	cache := &LayerNormCache{}
	y, err := l.Forward(x, cache)
	if err != nil {
		return nil, nil, err
	}
	return y, cache, nil
}

// Grad implements Op for LayerNorm.
func (l *LayerNorm) Grad(cache any, dy *tensor.Tensor) (*tensor.Tensor, error) {
	c, ok := cache.(*LayerNormCache)
	if !ok {
		return nil, fmt.Errorf("layernorm: unexpected cache type %T", cache)
	}
	return l.Backward(c, dy)
}

// SetFrozen implements Op for LayerNorm.
func (l *LayerNorm) SetFrozen(frozen bool) { l.Frozen = frozen }

// Apply implements Op for RMSNorm.
func (l *RMSNorm) Apply(x *tensor.Tensor, withGrad bool) (*tensor.Tensor, any, error) {
	if !withGrad {
		y, err := l.Forward(x, nil)
		return y, nil, err
	}
	cache := &RMSNormCache{}
	y, err := l.Forward(x, cache)
	if err != nil {
		return nil, nil, err
	}
	return y, cache, nil
}

// Grad implements Op for RMSNorm.
func (l *RMSNorm) Grad(cache any, dy *tensor.Tensor) (*tensor.Tensor, error) {
	c, ok := cache.(*RMSNormCache)
	if !ok {
		return nil, fmt.Errorf("rmsnorm: unexpected cache type %T", cache)
	}
	return l.Backward(c, dy)
}

// SetFrozen implements Op for RMSNorm.
func (l *RMSNorm) SetFrozen(frozen bool) { l.Frozen = frozen }
