package model

import (
	"fmt"
	"math"
	"sync"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// causalMask is the additive logit penalty for future positions.
const causalMask = -1e9

// PrefixKV holds trainable per-block prefix key/value states
// (prefix-tuning, Li & Liang 2021). Every query position may attend to
// all prefix slots in addition to its causal past. Prefix states are
// adapter parameters: always trainable, never part of the base model.
type PrefixKV struct {
	K   nn.Param // (P, dim)
	V   nn.Param // (P, dim)
	Len int
}

// NewPrefixKV creates a prefix of p slots for hidden size dim.
func NewPrefixKV(rng *tensor.RNG, p, dim int) *PrefixKV {
	return &PrefixKV{
		K:   nn.NewParam("prefix_k", tensor.NewNormal(rng, 0.02, p, dim)),
		V:   nn.NewParam("prefix_v", tensor.NewNormal(rng, 0.02, p, dim)),
		Len: p,
	}
}

// Params returns the prefix parameters.
func (p *PrefixKV) Params() []nn.Param {
	return []nn.Param{p.K, p.V}
}

// Attention is causal multi-head self-attention. Its four projections
// are nn.Op values so adapters (LoRA) can wrap any of them without the
// attention code knowing, and an optional PrefixKV implements
// prefix-tuning.
type Attention struct {
	Q, K, V, O nn.Op
	Prefix     *PrefixKV // nil unless prefix-tuning is attached

	heads   int
	headDim int
	rope    *ropeTable // nil for OPT-style learned positions

	// scratch is the step-scoped buffer arena shared by the whole
	// model and its shallow clones, or a CloneBlocks clone's own. nil
	// degrades to allocation.
	scratch *tensor.Scratch
}

// AttnCache retains everything the attention backward pass needs.
type AttnCache struct {
	B, T int
	P    int // prefix length at forward time

	QC, KC, VC, OC any // projection caches

	// Post-RoPE projections, each (B*T, dim).
	QT, KT, VT *tensor.Tensor
	// Softmax probabilities, (B*heads*T, P+T).
	Probs *tensor.Tensor
	// Pre-projection context (B*T, dim), the O projection's input.
	// Retained so Backward can return it to the scratch arena; it
	// aliases the X held by OC, so Bytes does not count it twice.
	Ctx *tensor.Tensor
}

// Bytes reports retained activation size.
func (c *AttnCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	b := nn.CacheBytes(c.QC) + nn.CacheBytes(c.KC) + nn.CacheBytes(c.VC) + nn.CacheBytes(c.OC)
	for _, t := range []*tensor.Tensor{c.QT, c.KT, c.VT, c.Probs} {
		if t != nil {
			b += t.Bytes()
		}
	}
	return b
}

// newAttention builds the attention module for cfg with plain Linear
// projections.
func newAttention(w *initWalk, cfg Config) *Attention {
	q := w.linear(cfg.Dim, cfg.Dim, cfg.HasBias())
	k := w.linear(cfg.Dim, cfg.Dim, cfg.HasBias())
	v := w.linear(cfg.Dim, cfg.Dim, cfg.HasBias())
	o := w.linear(cfg.Dim, cfg.Dim, cfg.HasBias())
	if w.skip {
		return nil
	}
	a := &Attention{Q: q, K: k, V: v, O: o, heads: cfg.Heads, headDim: cfg.HeadDim()}
	if cfg.Family == FamilyLlama {
		a.rope = newRopeTable(cfg.MaxSeq, cfg.HeadDim())
	}
	return a
}

func (a *Attention) prefixLen() int {
	if a.Prefix == nil {
		return 0
	}
	return a.Prefix.Len
}

// errCollector records the first error raised by any worker of a
// parallel region.
type errCollector struct {
	mu  sync.Mutex
	err error
}

func (e *errCollector) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// Forward computes attention over x of shape (B*T, dim). When withGrad
// is false no cache is produced (no-grad forward).
func (a *Attention) Forward(x *tensor.Tensor, batch, seq int, withGrad bool) (*tensor.Tensor, *AttnCache, error) {
	dim := a.heads * a.headDim
	if x.Rank() != 2 || x.Dim(0) != batch*seq || x.Dim(1) != dim {
		return nil, nil, fmt.Errorf("attention: input %v for batch %d seq %d dim %d: %w",
			x.Shape(), batch, seq, dim, tensor.ErrShape)
	}
	q, qc, err := a.Q.Apply(x, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("attention q: %w", err)
	}
	k, kc, err := a.K.Apply(x, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("attention k: %w", err)
	}
	v, vc, err := a.V.Apply(x, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("attention v: %w", err)
	}
	if a.rope != nil {
		a.applyRope(q, batch, seq, false)
		a.applyRope(k, batch, seq, false)
	}

	pLen := a.prefixLen()
	sc := a.scratch
	// attend writes every element of ctx and probs.
	ctx := sc.GetUninit(batch*seq, dim)
	var probs *tensor.Tensor
	if withGrad {
		probs = sc.GetUninit(batch*a.heads*seq, pLen+seq)
	}
	if err := a.attend(ctx, probs, q, k, v, batch, seq); err != nil {
		sc.Put(ctx, probs)
		return nil, nil, err
	}

	y, oc, err := a.O.Apply(ctx, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("attention o: %w", err)
	}
	if !withGrad {
		// Without a cache the projections die with the head loop.
		sc.Put(ctx, q, k, v)
		return y, nil, nil
	}
	return y, &AttnCache{
		B: batch, T: seq, P: pLen,
		QC: qc, KC: kc, VC: vc, OC: oc,
		QT: q, KT: k, VT: v, Probs: probs, Ctx: ctx,
	}, nil
}

// attend is the attention of every (batch, head): scores = q·kᵀ/√hd
// over the prefix slots and the seq key positions, the causal mask, the
// row softmax and ctx = scores·v. Batch b's queries, keys and values
// are rows [b*seq, (b+1)*seq) of q, k and v, and head h is columns
// [h*hd, (h+1)*hd) of each; the head loop reads them, and writes ctx,
// in place through tensor views. When probs is non-nil the scores of
// (batch, head) u are rows [u*seq, (u+1)*seq) of probs, which keeps
// them for the backward; otherwise they live in a per-worker buffer.
//
// With a prefix, the prefix columns and the sequence columns of the
// scores come from two products, and ctx's reduction over the P+seq
// key rows runs as a zero-mode product over the prefix rows, then an
// accumulating one over the sequence rows: the same fused multiply-add
// chain per element, its partial sum passing through ctx as a float32
// (docs/NUMERICS.md, "Attention heads in place").
//
// The per-(batch, head) bodies are independent — each one reads shared
// projections and writes a disjoint window of ctx/probs — so they may
// fan out over the tensor worker pool, at 2·seq·(P+seq)·headDim
// multiply-adds each (the score and context products). Every float is
// still produced by exactly the same instruction sequence as the
// serial loop, so results are bit-identical at any parallelism.
func (a *Attention) attend(ctx, probs, q, k, v *tensor.Tensor, batch, seq int) error {
	pLen := a.prefixLen()
	ext := pLen + seq
	hd := a.headDim
	sc := a.scratch
	scale := float32(1.0 / math.Sqrt(float64(hd)))

	var ec errCollector
	tensor.ParallelFor(batch*a.heads, 2*seq*ext*hd, func(lo, hi int) {
		var scores *tensor.Tensor
		if probs == nil {
			scores = sc.GetUninit(seq, ext)
			defer sc.Put(scores)
		}
		for u := lo; u < hi; u++ {
			b, h := u/a.heads, u%a.heads
			var s tensor.View
			if probs != nil {
				s = probs.Window(u*seq, 0, seq, ext)
			} else {
				s = scores.Window(0, 0, seq, ext)
			}
			qh, ch := q.Window(b*seq, h*hd, seq, hd), ctx.Window(b*seq, h*hd, seq, hd)
			if pLen > 0 {
				pk := a.Prefix.K.Value.Window(0, h*hd, pLen, hd)
				if err := tensor.MatMulTView(s.Window(0, 0, seq, pLen), qh, pk); err != nil {
					ec.set(fmt.Errorf("attention prefix scores: %w", err))
					return
				}
			}
			if err := tensor.MatMulTView(s.Window(0, pLen, seq, seq), qh, k.Window(b*seq, h*hd, seq, hd)); err != nil {
				ec.set(fmt.Errorf("attention scores: %w", err))
				return
			}
			tensor.SoftmaxCausal(s, scale, causalMask)
			if pLen > 0 {
				pv := a.Prefix.V.Value.Window(0, h*hd, pLen, hd)
				if err := tensor.MatMulView(ch, s.Window(0, 0, seq, pLen), pv, false); err != nil {
					ec.set(fmt.Errorf("attention prefix context: %w", err))
					return
				}
			}
			if err := tensor.MatMulView(ch, s.Window(0, pLen, seq, seq), v.Window(b*seq, h*hd, seq, hd), pLen > 0); err != nil {
				ec.set(fmt.Errorf("attention context: %w", err))
				return
			}
		}
	})
	return ec.err
}

// Backward propagates dy of shape (B*T, dim) through the attention.
// The cache is consumed: its retained activations are returned to the
// scratch arena, so Backward can only run once per Forward.
//
// Like attend, the head loop reads q, k, v, the probabilities and dctx
// in place and writes each head's dq, dk and dv rows straight into
// their columns. Products over the P+seq key rows are split at the
// prefix as in attend. The prefix rows of dK and dV go to a per-worker
// buffer and are added into the prefix gradients from there, as ever:
// accumulating straight into Prefix.K.Grad would change their rounding.
func (a *Attention) Backward(cache *AttnCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil || cache.Probs == nil {
		return nil, fmt.Errorf("attention backward: no cached activations")
	}
	if cache.P != a.prefixLen() {
		return nil, fmt.Errorf("attention backward: prefix length changed since forward (%d -> %d)",
			cache.P, a.prefixLen())
	}
	batch, seq, pLen := cache.B, cache.T, cache.P
	ext := pLen + seq
	hd := a.headDim
	dim := a.heads * hd
	sc := a.scratch

	dctx, err := a.O.Grad(cache.OC, dy)
	if err != nil {
		return nil, fmt.Errorf("attention o backward: %w", err)
	}
	sc.Put(cache.Ctx)
	cache.Ctx = nil

	// Every (batch, head) writes its whole window of dq, dk and dv.
	dq := sc.GetUninit(batch*seq, dim)
	dk := sc.GetUninit(batch*seq, dim)
	dv := sc.GetUninit(batch*seq, dim)
	scale := float32(1.0 / math.Sqrt(float64(hd)))

	// headBackward runs (batch b, head h) with the worker's dS buffer
	// dp (seq, P+seq) and prefix-gradient buffers dkp, dvp (P, hd).
	headBackward := func(b, h int, dp, dkp, dvp *tensor.Tensor) error {
		rows := b * seq
		p := cache.Probs.Window((b*a.heads+h)*seq, 0, seq, ext)
		ds := dp.Window(0, 0, seq, ext)
		qh, kh, vh := cache.QT.Window(rows, h*hd, seq, hd), cache.KT.Window(rows, h*hd, seq, hd), cache.VT.Window(rows, h*hd, seq, hd)
		douth := dctx.Window(rows, h*hd, seq, hd)
		dqh, dkh, dvh := dq.Window(rows, h*hd, seq, hd), dk.Window(rows, h*hd, seq, hd), dv.Window(rows, h*hd, seq, hd)
		var pk, pv tensor.View
		if pLen > 0 {
			pk, pv = a.Prefix.K.Value.Window(0, h*hd, pLen, hd), a.Prefix.V.Value.Window(0, h*hd, pLen, hd)
		}

		// dP = dOut @ Vᵀ ; dV = Pᵀ @ dOut
		if pLen > 0 {
			if err := tensor.MatMulTView(ds.Window(0, 0, seq, pLen), douth, pv); err != nil {
				return fmt.Errorf("attention prefix dP: %w", err)
			}
			if err := tensor.MatMulTAccumView(dvp.Window(0, 0, pLen, hd), p.Window(0, 0, seq, pLen), douth, false); err != nil {
				return fmt.Errorf("attention prefix dV: %w", err)
			}
		}
		if err := tensor.MatMulTView(ds.Window(0, pLen, seq, seq), douth, vh); err != nil {
			return fmt.Errorf("attention dP: %w", err)
		}
		if err := tensor.MatMulTAccumView(dvh, p.Window(0, pLen, seq, seq), douth, false); err != nil {
			return fmt.Errorf("attention dV: %w", err)
		}
		// dS = P ∘ (dP - rowsum(dP∘P)), scaled by 1/√hd.
		if err := tensor.SoftmaxBackward(ds, p, scale); err != nil {
			return fmt.Errorf("attention dS: %w", err)
		}
		// dQ = dS @ K ; dK = dSᵀ @ Q
		if pLen > 0 {
			if err := tensor.MatMulView(dqh, ds.Window(0, 0, seq, pLen), pk, false); err != nil {
				return fmt.Errorf("attention prefix dQ: %w", err)
			}
			if err := tensor.MatMulTAccumView(dkp.Window(0, 0, pLen, hd), ds.Window(0, 0, seq, pLen), qh, false); err != nil {
				return fmt.Errorf("attention prefix dK: %w", err)
			}
		}
		if err := tensor.MatMulView(dqh, ds.Window(0, pLen, seq, seq), kh, pLen > 0); err != nil {
			return fmt.Errorf("attention dQ: %w", err)
		}
		if err := tensor.MatMulTAccumView(dkh, ds.Window(0, pLen, seq, seq), qh, false); err != nil {
			return fmt.Errorf("attention dK: %w", err)
		}
		if pLen > 0 {
			a.scatterHeadAdd(a.Prefix.K.Grad, h, pLen, dkp.Data())
			a.scatterHeadAdd(a.Prefix.V.Grad, h, pLen, dvp.Data())
		}
		return nil
	}

	// Without a prefix every (batch, head) body is independent and the
	// fan-out is flat. With a prefix, all batches of one head
	// accumulate into the same prefix-gradient columns, so the unit of
	// parallelism becomes the head and batches run in ascending order
	// inside it — the exact accumulation order of the serial loop. A
	// (batch, head) body is four seq·(P+seq)·headDim products.
	units, work := batch*a.heads, 4*seq*ext*hd
	perHead := pLen > 0
	if perHead {
		units, work = a.heads, batch*work
	}
	var ec errCollector
	tensor.ParallelFor(units, work, func(lo, hi int) {
		dp := sc.GetUninit(seq, ext)
		defer sc.Put(dp)
		var dkp, dvp *tensor.Tensor
		if perHead {
			dkp, dvp = sc.GetUninit(pLen, hd), sc.GetUninit(pLen, hd)
			defer sc.Put(dkp, dvp)
		}
		for u := lo; u < hi; u++ {
			if perHead {
				for b := 0; b < batch; b++ {
					if err := headBackward(b, u, dp, dkp, dvp); err != nil {
						ec.set(err)
						return
					}
				}
			} else if err := headBackward(u/a.heads, u%a.heads, dp, dkp, dvp); err != nil {
				ec.set(err)
				return
			}
		}
	})
	sc.Put(dctx, cache.Probs, cache.QT, cache.KT, cache.VT)
	cache.Probs, cache.QT, cache.KT, cache.VT = nil, nil, nil, nil
	if ec.err != nil {
		sc.Put(dq, dk, dv)
		return nil, ec.err
	}

	if a.rope != nil {
		a.applyRope(dq, batch, seq, true)
		a.applyRope(dk, batch, seq, true)
	}

	dxq, err := a.Q.Grad(cache.QC, dq)
	if err != nil {
		return nil, fmt.Errorf("attention q backward: %w", err)
	}
	dxk, err := a.K.Grad(cache.KC, dk)
	if err != nil {
		return nil, fmt.Errorf("attention k backward: %w", err)
	}
	dxv, err := a.V.Grad(cache.VC, dv)
	if err != nil {
		return nil, fmt.Errorf("attention v backward: %w", err)
	}
	sc.Put(dq, dk, dv)
	if err := tensor.Add(dxq, dxq, dxk); err != nil {
		return nil, fmt.Errorf("attention dx sum: %w", err)
	}
	if err := tensor.Add(dxq, dxq, dxv); err != nil {
		return nil, fmt.Errorf("attention dx sum: %w", err)
	}
	sc.Put(dxk, dxv)
	return dxq, nil
}

// Params returns trainable parameters across the four projections and
// the prefix (when attached).
func (a *Attention) Params() []nn.Param {
	var ps []nn.Param
	ps = append(ps, nn.Prefixed("q", a.Q.Params())...)
	ps = append(ps, nn.Prefixed("k", a.K.Params())...)
	ps = append(ps, nn.Prefixed("v", a.V.Params())...)
	ps = append(ps, nn.Prefixed("o", a.O.Params())...)
	if a.Prefix != nil {
		ps = append(ps, nn.Prefixed("prefix", a.Prefix.Params())...)
	}
	return ps
}

// SetFrozen freezes or unfreezes the base projections. Prefix
// parameters are adapter parameters and remain trainable.
func (a *Attention) SetFrozen(frozen bool) {
	a.Q.SetFrozen(frozen)
	a.K.SetFrozen(frozen)
	a.V.SetFrozen(frozen)
	a.O.SetFrozen(frozen)
}

// scatterHeadAdd accumulates src (rows*headDim floats) into head h of
// rows [0, rows) of dst.
func (a *Attention) scatterHeadAdd(dst *tensor.Tensor, h, rows int, src []float32) {
	dim := a.heads * a.headDim
	for t := 0; t < rows; t++ {
		out := dst.Data()[t*dim+h*a.headDim:][:a.headDim]
		in := src[t*a.headDim : (t+1)*a.headDim]
		for i, v := range in {
			out[i] += v
		}
	}
}

// applyRope rotates q/k rows in place; inverse applies the backward
// rotation. Rows are independent, dim elements each, so they may fan
// out over the pool.
func (a *Attention) applyRope(t *tensor.Tensor, batch, seq int, inverse bool) {
	dim := a.heads * a.headDim
	tensor.ParallelFor(batch*seq, dim, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			pos := r % seq
			row := t.Data()[r*dim : (r+1)*dim]
			for h := 0; h < a.heads; h++ {
				a.rope.apply(row[h*a.headDim:(h+1)*a.headDim], pos, inverse)
			}
		}
	})
}
