package model

import (
	"fmt"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// Block is one pre-norm transformer block:
//
//	x = x + Attn(Norm1(x))
//	x = x + FFN(Norm2(x))
type Block struct {
	Norm1 nn.Op
	Attn  *Attention
	Norm2 nn.Op
	FFN   *FFN

	scratch *tensor.Scratch // step-scoped buffer arena; nil degrades to allocation
}

// Scratch exposes the block's buffer arena, so that an adapter wrapping
// one of its projections can draw its temporaries from the same place.
func (b *Block) Scratch() *tensor.Scratch { return b.scratch }

// BlockCache retains one block's intermediate results. Its Bytes()
// value is the block's contribution to the 𝕀 term.
type BlockCache struct {
	Norm1C any
	AttnC  *AttnCache
	Norm2C any
	FFNC   *FFNCache

	// H is the first residual sum (the Norm2 input). It aliases the X
	// held by Norm2C — retained separately so Backward can return it
	// to the scratch arena; Bytes does not count it twice.
	H *tensor.Tensor

	// X is the block's input (the Norm1 input), aliasing the X held by
	// Norm1C. The block never returns it — its owner is whoever passed it
	// in — but a section whose previous block made it returns it to the
	// scratch arena once this block's backward is done; Bytes does not
	// count it twice.
	X *tensor.Tensor

	// N1 and N2 are the norm outputs (the attention and FFN inputs).
	// They alias the X fields of the projection caches inside AttnC and
	// FFNC — retained separately so Backward can return them to the
	// scratch arena once those sub-backwards have consumed them; Bytes
	// does not count them again.
	N1, N2 *tensor.Tensor
}

// Bytes reports retained activation size.
func (c *BlockCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return nn.CacheBytes(c.Norm1C) + c.AttnC.Bytes() + nn.CacheBytes(c.Norm2C) + c.FFNC.Bytes()
}

// newBlock constructs a block for cfg on the walk: nil when the walk
// skips it.
func newBlock(w *initWalk, cfg Config) *Block {
	attn, ffn := newAttention(w, cfg), newFFN(w, cfg)
	if w.skip {
		return nil
	}
	b := &Block{Attn: attn, FFN: ffn}
	if cfg.Family == FamilyOPT {
		b.Norm1 = nn.NewLayerNorm(cfg.Dim)
		b.Norm2 = nn.NewLayerNorm(cfg.Dim)
	} else {
		b.Norm1 = nn.NewRMSNorm(cfg.Dim)
		b.Norm2 = nn.NewRMSNorm(cfg.Dim)
	}
	return b
}

// Forward runs the block over x (B*T, dim).
func (b *Block) Forward(x *tensor.Tensor, batch, seq int, withGrad bool) (*tensor.Tensor, *BlockCache, error) {
	var cache *BlockCache
	if withGrad {
		cache = &BlockCache{}
	}

	sc := b.scratch
	n1, n1c, err := b.Norm1.Apply(x, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("block norm1: %w", err)
	}
	attnOut, attnC, err := b.Attn.Forward(n1, batch, seq, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("block attn: %w", err)
	}
	if !withGrad {
		sc.Put(n1)
	}
	h := sc.GetUninit(x.Shape()...)
	if err := tensor.Add(h, x, attnOut); err != nil {
		return nil, nil, fmt.Errorf("block residual 1: %w", err)
	}
	sc.Put(attnOut)

	n2, n2c, err := b.Norm2.Apply(h, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("block norm2: %w", err)
	}
	ffnOut, ffnC, err := b.FFN.Forward(n2, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("block ffn: %w", err)
	}
	if !withGrad {
		sc.Put(n2)
	}
	y := sc.GetUninit(h.Shape()...)
	if err := tensor.Add(y, h, ffnOut); err != nil {
		return nil, nil, fmt.Errorf("block residual 2: %w", err)
	}
	sc.Put(ffnOut)

	if cache != nil {
		cache.Norm1C, cache.AttnC, cache.Norm2C, cache.FFNC = n1c, attnC, n2c, ffnC
		cache.X, cache.H = x, h
		cache.N1, cache.N2 = n1, n2
	} else {
		sc.Put(h)
	}
	return y, cache, nil
}

// Backward propagates dy through the block. With needDX false nothing
// below the block trains: it accumulates the block's own parameter
// gradients alone and returns a nil dx, so Norm1's backward, the
// attention's input products and the last residual add are not run.
func (b *Block) Backward(cache *BlockCache, dy *tensor.Tensor, needDX bool) (*tensor.Tensor, error) {
	if cache == nil {
		return nil, fmt.Errorf("block backward: no cached activations")
	}
	sc := b.scratch
	// y = h + FFN(Norm2(h)): dh = dy + Norm2ᵀ(FFNᵀ(dy))
	dffn, err := b.FFN.Backward(cache.FFNC, dy)
	if err != nil {
		return nil, fmt.Errorf("block ffn backward: %w", err)
	}
	dn2, err := b.Norm2.Grad(cache.Norm2C, dffn, true)
	if err != nil {
		return nil, fmt.Errorf("block norm2 backward: %w", err)
	}
	// N2 (the FFN input) was last read by the FFN's projection
	// backwards; H (the Norm2 input) by Norm2.Grad just above.
	sc.Put(dffn, cache.H, cache.N2)
	cache.H, cache.N2 = nil, nil
	dh := sc.GetUninit(dy.Shape()...)
	if err := tensor.Add(dh, dy, dn2); err != nil {
		return nil, fmt.Errorf("block residual 2 backward: %w", err)
	}
	sc.Put(dn2)

	// h = x + Attn(Norm1(x)): dx = dh + Norm1ᵀ(Attnᵀ(dh))
	dattn, err := b.Attn.Backward(cache.AttnC, dh, needDX || b.Norm1.Trains())
	if err != nil {
		return nil, fmt.Errorf("block attn backward: %w", err)
	}
	dn1, err := b.Norm1.Grad(cache.Norm1C, dattn, needDX)
	if err != nil {
		return nil, fmt.Errorf("block norm1 backward: %w", err)
	}
	// N1 (the attention input) was last read by the Q/K/V projection
	// backwards inside Attn.Backward.
	sc.Put(dattn, cache.N1)
	cache.N1 = nil
	if !needDX {
		sc.Put(dh)
		return nil, nil
	}
	dx := sc.GetUninit(dy.Shape()...)
	if err := tensor.Add(dx, dh, dn1); err != nil {
		return nil, fmt.Errorf("block residual 1 backward: %w", err)
	}
	sc.Put(dh, dn1)
	return dx, nil
}

// Params returns the block's trainable parameters.
func (b *Block) Params() []nn.Param {
	var ps []nn.Param
	ps = append(ps, nn.Prefixed("norm1", b.Norm1.Params())...)
	ps = append(ps, nn.Prefixed("attn", b.Attn.Params())...)
	ps = append(ps, nn.Prefixed("norm2", b.Norm2.Params())...)
	ps = append(ps, nn.Prefixed("ffn", b.FFN.Params())...)
	return ps
}

// SetFrozen freezes or unfreezes the block's base parameters. Adapter
// parameters wrapped around projections are unaffected (adapters manage
// their own trainability).
func (b *Block) SetFrozen(frozen bool) {
	b.Norm1.SetFrozen(frozen)
	b.Attn.SetFrozen(frozen)
	b.Norm2.SetFrozen(frozen)
	b.FFN.SetFrozen(frozen)
}
