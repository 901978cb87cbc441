package model

import (
	"fmt"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// FFN is the position-wise feed-forward network of a transformer
// block: GELU MLP for OPT, SwiGLU for Llama.
type FFN struct {
	family Family

	// OPT: Up -> GELU -> Down. Llama: (SiLU(Gate) ∘ Up) -> Down.
	Up   nn.Op
	Down nn.Op
	Gate nn.Op // Llama only

	scratch *tensor.Scratch // step-scoped buffer arena; nil degrades to allocation
}

// FFNCache retains FFN intermediates for the backward pass.
type FFNCache struct {
	UpC, DownC, GateC any
	Act               *nn.ActCache   // gelu' (OPT) or silu' (Llama) at the pre-activation, written over it
	UpOut             *tensor.Tensor // Llama: up-projection output (for the gating product)
	SiluOut           *tensor.Tensor // Llama: SiLU(gate) output

	// Hidden is the Down projection's input (the GELU output for OPT,
	// the gating product for Llama). It aliases the X held by DownC —
	// retained separately so Backward can return it to the scratch
	// arena; Bytes does not count it twice.
	Hidden *tensor.Tensor
}

// Bytes reports retained activation size.
func (c *FFNCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	b := nn.CacheBytes(c.UpC) + nn.CacheBytes(c.DownC) + nn.CacheBytes(c.GateC) + c.Act.Bytes()
	if c.UpOut != nil {
		b += c.UpOut.Bytes()
	}
	if c.SiluOut != nil {
		b += c.SiluOut.Bytes()
	}
	return b
}

func newFFN(w *initWalk, cfg Config) *FFN {
	up := w.linear(cfg.Dim, cfg.FFN, cfg.HasBias())
	down := w.linear(cfg.FFN, cfg.Dim, cfg.HasBias())
	var gate *nn.Linear
	if cfg.Family == FamilyLlama {
		gate = w.linear(cfg.Dim, cfg.FFN, false)
	}
	if w.skip {
		return nil
	}
	f := &FFN{family: cfg.Family, Up: up, Down: down}
	if gate != nil {
		f.Gate = gate
	}
	return f
}

// Forward applies the feed-forward network to x (rows, dim).
func (f *FFN) Forward(x *tensor.Tensor, withGrad bool) (*tensor.Tensor, *FFNCache, error) {
	var cache *FFNCache
	if withGrad {
		cache = &FFNCache{}
	}
	sc := f.scratch
	switch f.family {
	case FamilyOPT:
		h, upc, err := f.Up.Apply(x, withGrad)
		if err != nil {
			return nil, nil, fmt.Errorf("ffn up: %w", err)
		}
		var act *nn.ActCache
		if withGrad {
			act = &nn.ActCache{}
		}
		g := nn.GELUScratch(sc, h, act)
		if !withGrad {
			sc.Put(h)
		}
		y, downc, err := f.Down.Apply(g, withGrad)
		if err != nil {
			return nil, nil, fmt.Errorf("ffn down: %w", err)
		}
		if cache != nil {
			cache.UpC, cache.DownC, cache.Act = upc, downc, act
			cache.Hidden = g
		} else {
			sc.Put(g)
		}
		return y, cache, nil

	case FamilyLlama:
		g, gatec, err := f.Gate.Apply(x, withGrad)
		if err != nil {
			return nil, nil, fmt.Errorf("ffn gate: %w", err)
		}
		u, upc, err := f.Up.Apply(x, withGrad)
		if err != nil {
			return nil, nil, fmt.Errorf("ffn up: %w", err)
		}
		var act *nn.ActCache
		if withGrad {
			act = &nn.ActCache{}
		}
		s := nn.SiLUScratch(sc, g, act)
		if !withGrad {
			sc.Put(g)
		}
		h := sc.GetUninit(s.Shape()...)
		if err := tensor.Mul(h, s, u); err != nil {
			return nil, nil, fmt.Errorf("ffn gating: %w", err)
		}
		y, downc, err := f.Down.Apply(h, withGrad)
		if err != nil {
			return nil, nil, fmt.Errorf("ffn down: %w", err)
		}
		if cache != nil {
			cache.GateC, cache.UpC, cache.DownC = gatec, upc, downc
			cache.Act = act
			cache.UpOut = u
			cache.SiluOut = s
			cache.Hidden = h
		} else {
			sc.Put(u, s, h)
		}
		return y, cache, nil

	default:
		return nil, nil, fmt.Errorf("%w: ffn family %v", ErrConfig, f.family)
	}
}

// Backward propagates dy through the feed-forward network.
func (f *FFN) Backward(cache *FFNCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil {
		return nil, fmt.Errorf("ffn backward: no cached activations")
	}
	sc := f.scratch
	switch f.family {
	case FamilyOPT:
		dg, err := f.Down.Grad(cache.DownC, dy, true)
		if err != nil {
			return nil, fmt.Errorf("ffn down backward: %w", err)
		}
		sc.Put(cache.Hidden)
		cache.Hidden = nil
		dh, err := nn.ActBackwardScratch(sc, cache.Act, dg)
		if err != nil {
			return nil, fmt.Errorf("ffn gelu backward: %w", err)
		}
		sc.Put(dg, cache.Act.D)
		cache.Act = nil
		dx, err := f.Up.Grad(cache.UpC, dh, true)
		if err != nil {
			return nil, fmt.Errorf("ffn up backward: %w", err)
		}
		sc.Put(dh)
		return dx, nil

	case FamilyLlama:
		dh, err := f.Down.Grad(cache.DownC, dy, true)
		if err != nil {
			return nil, fmt.Errorf("ffn down backward: %w", err)
		}
		sc.Put(cache.Hidden)
		cache.Hidden = nil
		// h = s ∘ u  →  ds = dh ∘ u ; du = dh ∘ s
		ds := sc.GetUninit(dh.Shape()...)
		if err := tensor.Mul(ds, dh, cache.UpOut); err != nil {
			return nil, fmt.Errorf("ffn ds: %w", err)
		}
		du := sc.GetUninit(dh.Shape()...)
		if err := tensor.Mul(du, dh, cache.SiluOut); err != nil {
			return nil, fmt.Errorf("ffn du: %w", err)
		}
		sc.Put(dh, cache.UpOut, cache.SiluOut)
		cache.UpOut, cache.SiluOut = nil, nil
		dg, err := nn.ActBackwardScratch(sc, cache.Act, ds)
		if err != nil {
			return nil, fmt.Errorf("ffn silu backward: %w", err)
		}
		sc.Put(ds, cache.Act.D)
		cache.Act = nil
		dxGate, err := f.Gate.Grad(cache.GateC, dg, true)
		if err != nil {
			return nil, fmt.Errorf("ffn gate backward: %w", err)
		}
		sc.Put(dg)
		dxUp, err := f.Up.Grad(cache.UpC, du, true)
		if err != nil {
			return nil, fmt.Errorf("ffn up backward: %w", err)
		}
		sc.Put(du)
		if err := tensor.Add(dxGate, dxGate, dxUp); err != nil {
			return nil, fmt.Errorf("ffn dx sum: %w", err)
		}
		sc.Put(dxUp)
		return dxGate, nil

	default:
		return nil, fmt.Errorf("%w: ffn family %v", ErrConfig, f.family)
	}
}

// Params returns trainable parameters.
func (f *FFN) Params() []nn.Param {
	var ps []nn.Param
	ps = append(ps, nn.Prefixed("up", f.Up.Params())...)
	ps = append(ps, nn.Prefixed("down", f.Down.Params())...)
	if f.Gate != nil {
		ps = append(ps, nn.Prefixed("gate", f.Gate.Params())...)
	}
	return ps
}

// SetFrozen freezes or unfreezes the FFN projections.
func (f *FFN) SetFrozen(frozen bool) {
	f.Up.SetFrozen(frozen)
	f.Down.SetFrozen(frozen)
	if f.Gate != nil {
		f.Gate.SetFrozen(frozen)
	}
}
