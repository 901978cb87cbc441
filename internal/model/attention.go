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
	// model (and its shallow clones). nil degrades to allocation.
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
	ctx := sc.Get(batch*seq, dim)
	var probs *tensor.Tensor
	if withGrad {
		probs = sc.Get(batch*a.heads*seq, pLen+seq)
	}
	if err := a.attend(ctx, probs, q, k, v, batch, seq, seq); err != nil {
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
// over the prefix slots and kvLen key positions, the causal mask, the
// row softmax and ctx = scores·v. Batch b's queries are rows
// [b*seq, (b+1)*seq) of q, its keys and values rows [b*kvLen,
// (b+1)*kvLen) of k and v, and its queries are the last seq of those
// kvLen positions. Forward has kvLen == seq; a decode step has one
// query over every position cached so far. When probs is non-nil it
// receives each (batch, head)'s (seq, P+kvLen) probabilities.
//
// Every kernel here accumulates each output row on its own, and a
// masked score is exactly 0 after the softmax, so a query row's result
// does not depend on which other rows or later positions share the
// call: a decoded row is bit-equal to the same row of a full forward.
//
// The per-(batch, head) bodies are independent — each one reads shared
// projections and writes a disjoint slice of ctx/probs — so they may
// fan out over the tensor worker pool, at 2·seq·(P+kvLen)·headDim
// multiply-adds each (the score and context products). Every float is
// still produced by exactly the same instruction sequence as the
// serial loop, so results are bit-identical at any parallelism.
func (a *Attention) attend(ctx, probs, q, k, v *tensor.Tensor, batch, seq, kvLen int) error {
	pLen := a.prefixLen()
	ext := pLen + kvLen
	sc := a.scratch
	scale := float32(1.0 / math.Sqrt(float64(a.headDim)))

	var ec errCollector
	tensor.ParallelFor(batch*a.heads, 2*seq*ext*a.headDim, func(lo, hi int) {
		qh := sc.Get(seq, a.headDim)
		khExt := sc.Get(ext, a.headDim)
		vhExt := sc.Get(ext, a.headDim)
		scores := sc.Get(seq, ext)
		outh := sc.Get(seq, a.headDim)
		defer sc.Put(qh, khExt, vhExt, scores, outh)
		for u := lo; u < hi; u++ {
			b, h := u/a.heads, u%a.heads
			a.gatherHead(q, b*seq, h, seq, qh.Data())
			if pLen > 0 {
				a.gatherHead(a.Prefix.K.Value, 0, h, pLen, khExt.Data()[:pLen*a.headDim])
				a.gatherHead(a.Prefix.V.Value, 0, h, pLen, vhExt.Data()[:pLen*a.headDim])
			}
			a.gatherHead(k, b*kvLen, h, kvLen, khExt.Data()[pLen*a.headDim:])
			a.gatherHead(v, b*kvLen, h, kvLen, vhExt.Data()[pLen*a.headDim:])
			if err := tensor.MatMulT(scores, qh, khExt); err != nil {
				ec.set(fmt.Errorf("attention scores: %w", err))
				return
			}
			scores.Scale(scale)
			maskCausal(scores)
			if err := tensor.SoftmaxRows(scores, scores); err != nil {
				ec.set(fmt.Errorf("attention softmax: %w", err))
				return
			}
			if probs != nil {
				off := (b*a.heads + h) * seq * ext
				copy(probs.Data()[off:off+seq*ext], scores.Data())
			}
			if err := tensor.MatMul(outh, scores, vhExt); err != nil {
				ec.set(fmt.Errorf("attention context: %w", err))
				return
			}
			a.scatterHeadCopy(ctx, b*seq, h, seq, outh.Data())
		}
	})
	return ec.err
}

// attnBwdBufs is the per-worker buffer set of the backward head loop.
type attnBwdBufs struct {
	qh, khExt, vhExt   *tensor.Tensor
	douth, dqh, dkhExt *tensor.Tensor
	dvhExt, dp, p      *tensor.Tensor
}

// Backward propagates dy of shape (B*T, dim) through the attention.
// The cache is consumed: its retained activations are returned to the
// scratch arena, so Backward can only run once per Forward.
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
	dim := a.heads * a.headDim
	sc := a.scratch

	dctx, err := a.O.Grad(cache.OC, dy)
	if err != nil {
		return nil, fmt.Errorf("attention o backward: %w", err)
	}
	sc.Put(cache.Ctx)
	cache.Ctx = nil

	dq := sc.Get(batch*seq, dim)
	dk := sc.Get(batch*seq, dim)
	dv := sc.Get(batch*seq, dim)
	scale := float32(1.0 / math.Sqrt(float64(a.headDim)))

	headBackward := func(b, h int, bufs *attnBwdBufs) error {
		a.gatherHead(cache.QT, b*seq, h, seq, bufs.qh.Data())
		if pLen > 0 {
			a.gatherHead(a.Prefix.K.Value, 0, h, pLen, bufs.khExt.Data()[:pLen*a.headDim])
			a.gatherHead(a.Prefix.V.Value, 0, h, pLen, bufs.vhExt.Data()[:pLen*a.headDim])
		}
		a.gatherHead(cache.KT, b*seq, h, seq, bufs.khExt.Data()[pLen*a.headDim:])
		a.gatherHead(cache.VT, b*seq, h, seq, bufs.vhExt.Data()[pLen*a.headDim:])
		a.gatherHead(dctx, b*seq, h, seq, bufs.douth.Data())
		off := (b*a.heads + h) * seq * ext
		copy(bufs.p.Data(), cache.Probs.Data()[off:off+seq*ext])

		// dP = dOut @ Vᵀ ; dV = Pᵀ @ dOut
		if err := tensor.MatMulT(bufs.dp, bufs.douth, bufs.vhExt); err != nil {
			return fmt.Errorf("attention dP: %w", err)
		}
		bufs.dvhExt.Zero()
		if err := tensor.MatMulTAccum(bufs.dvhExt, bufs.p, bufs.douth); err != nil {
			return fmt.Errorf("attention dV: %w", err)
		}
		// dS = P ∘ (dP - rowsum(dP∘P)); scale by 1/√hd.
		softmaxBackwardInPlace(bufs.dp, bufs.p)
		bufs.dp.Scale(scale)
		// dQ = dS @ K ; dK = dSᵀ @ Q
		if err := tensor.MatMul(bufs.dqh, bufs.dp, bufs.khExt); err != nil {
			return fmt.Errorf("attention dQ: %w", err)
		}
		bufs.dkhExt.Zero()
		if err := tensor.MatMulTAccum(bufs.dkhExt, bufs.dp, bufs.qh); err != nil {
			return fmt.Errorf("attention dK: %w", err)
		}
		if pLen > 0 {
			a.scatterHeadAdd(a.Prefix.K.Grad, 0, h, pLen, bufs.dkhExt.Data()[:pLen*a.headDim])
			a.scatterHeadAdd(a.Prefix.V.Grad, 0, h, pLen, bufs.dvhExt.Data()[:pLen*a.headDim])
		}
		a.scatterHeadCopy(dq, b*seq, h, seq, bufs.dqh.Data())
		a.scatterHeadCopy(dk, b*seq, h, seq, bufs.dkhExt.Data()[pLen*a.headDim:])
		a.scatterHeadCopy(dv, b*seq, h, seq, bufs.dvhExt.Data()[pLen*a.headDim:])
		return nil
	}

	// Without a prefix every (batch, head) body is independent and the
	// fan-out is flat. With a prefix, all batches of one head
	// accumulate into the same prefix-gradient columns, so the unit of
	// parallelism becomes the head and batches run in ascending order
	// inside it — the exact accumulation order of the serial loop. A
	// (batch, head) body is four seq·(P+seq)·headDim products.
	units, work := batch*a.heads, 4*seq*ext*a.headDim
	perHead := pLen > 0
	if perHead {
		units, work = a.heads, batch*work
	}
	var ec errCollector
	tensor.ParallelFor(units, work, func(lo, hi int) {
		bufs := &attnBwdBufs{
			qh:     sc.Get(seq, a.headDim),
			khExt:  sc.Get(ext, a.headDim),
			vhExt:  sc.Get(ext, a.headDim),
			douth:  sc.Get(seq, a.headDim),
			dqh:    sc.Get(seq, a.headDim),
			dkhExt: sc.Get(ext, a.headDim),
			dvhExt: sc.Get(ext, a.headDim),
			dp:     sc.Get(seq, ext),
			p:      sc.Get(seq, ext),
		}
		defer sc.Put(bufs.qh, bufs.khExt, bufs.vhExt, bufs.douth,
			bufs.dqh, bufs.dkhExt, bufs.dvhExt, bufs.dp, bufs.p)
		for u := lo; u < hi; u++ {
			if perHead {
				for b := 0; b < batch; b++ {
					if err := headBackward(b, u, bufs); err != nil {
						ec.set(err)
						return
					}
				}
			} else if err := headBackward(u/a.heads, u%a.heads, bufs); err != nil {
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

// gatherHead copies rows [rowOff, rowOff+rows) of head h from a
// (*, dim) tensor into dst (rows*headDim floats).
func (a *Attention) gatherHead(src *tensor.Tensor, rowOff, h, rows int, dst []float32) {
	dim := a.heads * a.headDim
	for t := 0; t < rows; t++ {
		row := src.Data()[(rowOff+t)*dim+h*a.headDim:]
		copy(dst[t*a.headDim:(t+1)*a.headDim], row[:a.headDim])
	}
}

// scatterHeadCopy writes src (rows*headDim floats) into head h at rows
// [rowOff, rowOff+rows) of dst.
func (a *Attention) scatterHeadCopy(dst *tensor.Tensor, rowOff, h, rows int, src []float32) {
	dim := a.heads * a.headDim
	for t := 0; t < rows; t++ {
		out := dst.Data()[(rowOff+t)*dim+h*a.headDim:][:a.headDim]
		copy(out, src[t*a.headDim:(t+1)*a.headDim])
	}
}

// scatterHeadAdd accumulates src into head h at rows [rowOff,
// rowOff+rows) of dst.
func (a *Attention) scatterHeadAdd(dst *tensor.Tensor, rowOff, h, rows int, src []float32) {
	dim := a.heads * a.headDim
	for t := 0; t < rows; t++ {
		out := dst.Data()[(rowOff+t)*dim+h*a.headDim:][:a.headDim]
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

// maskCausal adds a large negative value to the entries of a (T, P+K)
// score matrix where a query would attend to a later key position. The
// T queries are the last T of the K key positions, so query i sits at
// key column P+K-T+i; the prefix columns [0, P) are always visible.
func maskCausal(scores *tensor.Tensor) {
	seq := scores.Dim(0)
	ext := scores.Dim(1)
	for i := 0; i < seq; i++ {
		row := scores.Data()[i*ext : (i+1)*ext]
		for j := ext - seq + i + 1; j < ext; j++ {
			row[j] += causalMask
		}
	}
}

// softmaxBackwardInPlace converts dp (gradient w.r.t. probabilities)
// into the gradient w.r.t. logits, given probabilities p:
// ds = p ∘ (dp - Σ_j dp_j p_j) rowwise.
func softmaxBackwardInPlace(dp, p *tensor.Tensor) {
	rows, cols := p.Dim(0), p.Dim(1)
	for r := 0; r < rows; r++ {
		pr := p.Data()[r*cols : (r+1)*cols]
		dpr := dp.Data()[r*cols : (r+1)*cols]
		var dot float64
		for c := 0; c < cols; c++ {
			dot += float64(float64(dpr[c]) * float64(pr[c]))
		}
		for c := 0; c < cols; c++ {
			dpr[c] = pr[c] * (dpr[c] - float32(dot))
		}
	}
}
