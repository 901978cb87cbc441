package model

import (
	"fmt"
	"math"

	"menos/internal/tensor"
)

// Incremental decoding with per-block KV caches: one forward pass per
// new token instead of re-running the whole window. Decoding runs split
// like training: the client decodes its input blocks (Block.DecodeStep)
// and output section, the server its BodySection (DecodeStep over a
// BodyDecodeState). The decode state is per-session inference memory —
// the inference-time analogue of the 𝕀 term Menos manages during
// training.

// DecodeStep runs one block over a single-row x at position pos,
// appending this position's K/V to the caches. Exported so split
// runtimes can decode through arbitrary block slices.
func (b *Block) DecodeStep(x *tensor.Tensor, pos int, kCache, vCache *tensor.Tensor) (*tensor.Tensor, error) {
	n1, _, err := b.Norm1.Apply(x, false)
	if err != nil {
		return nil, fmt.Errorf("norm1: %w", err)
	}
	attnOut, err := b.Attn.decodeStep(n1, pos, kCache, vCache)
	if err != nil {
		return nil, fmt.Errorf("attn: %w", err)
	}
	h := tensor.New(x.Shape()...)
	if err := tensor.Add(h, x, attnOut); err != nil {
		return nil, fmt.Errorf("residual 1: %w", err)
	}
	n2, _, err := b.Norm2.Apply(h, false)
	if err != nil {
		return nil, fmt.Errorf("norm2: %w", err)
	}
	ffnOut, _, err := b.FFN.Forward(n2, false)
	if err != nil {
		return nil, fmt.Errorf("ffn: %w", err)
	}
	y := tensor.New(h.Shape()...)
	if err := tensor.Add(y, h, ffnOut); err != nil {
		return nil, fmt.Errorf("residual 2: %w", err)
	}
	return y, nil
}

// decodeStep computes attention for a single query row at position
// pos over the cached keys/values (plus any prefix adapter slots).
func (a *Attention) decodeStep(x *tensor.Tensor, pos int, kCache, vCache *tensor.Tensor) (*tensor.Tensor, error) {
	dim := a.heads * a.headDim
	q, _, err := a.Q.Apply(x, false)
	if err != nil {
		return nil, fmt.Errorf("q: %w", err)
	}
	k, _, err := a.K.Apply(x, false)
	if err != nil {
		return nil, fmt.Errorf("k: %w", err)
	}
	v, _, err := a.V.Apply(x, false)
	if err != nil {
		return nil, fmt.Errorf("v: %w", err)
	}
	if a.rope != nil {
		for h := 0; h < a.heads; h++ {
			a.rope.apply(q.Data()[h*a.headDim:(h+1)*a.headDim], pos, false)
			a.rope.apply(k.Data()[h*a.headDim:(h+1)*a.headDim], pos, false)
		}
	}
	copy(kCache.Data()[pos*dim:(pos+1)*dim], k.Data())
	copy(vCache.Data()[pos*dim:(pos+1)*dim], v.Data())

	pLen := a.prefixLen()
	ctxLen := pos + 1
	ext := pLen + ctxLen
	scale := 1.0 / math.Sqrt(float64(a.headDim))

	ctx := tensor.New(1, dim)
	scores := make([]float64, ext)
	for h := 0; h < a.heads; h++ {
		qh := q.Data()[h*a.headDim : (h+1)*a.headDim]
		// Scores over prefix slots then cached positions.
		for j := 0; j < ext; j++ {
			var keyRow []float32
			if j < pLen {
				keyRow = a.Prefix.K.Value.Data()[j*dim+h*a.headDim:][:a.headDim]
			} else {
				p := j - pLen
				keyRow = kCache.Data()[p*dim+h*a.headDim:][:a.headDim]
			}
			var dot float64
			for c := 0; c < a.headDim; c++ {
				dot += float64(qh[c]) * float64(keyRow[c])
			}
			scores[j] = dot * scale
		}
		softmaxInPlace(scores)
		out := ctx.Data()[h*a.headDim : (h+1)*a.headDim]
		for j := 0; j < ext; j++ {
			var valRow []float32
			if j < pLen {
				valRow = a.Prefix.V.Value.Data()[j*dim+h*a.headDim:][:a.headDim]
			} else {
				p := j - pLen
				valRow = vCache.Data()[p*dim+h*a.headDim:][:a.headDim]
			}
			w := float32(scores[j])
			for c := 0; c < a.headDim; c++ {
				out[c] += w * valRow[c]
			}
		}
	}
	y, _, err := a.O.Apply(ctx, false)
	if err != nil {
		return nil, fmt.Errorf("o: %w", err)
	}
	return y, nil
}

func softmaxInPlace(v []float64) {
	maxV := v[0]
	for _, x := range v[1:] {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - maxV)
		v[i] = e
		sum += e
	}
	for i := range v {
		v[i] /= sum
	}
}

// BodyDecodeState holds the KV caches for incremental decoding through
// a BodySection: the server-side inference state of a split decoding
// session. Its Bytes() footprint is what a Menos server reserves from
// the scheduler for the session's lifetime.
type BodyDecodeState struct {
	capacity int
	length   int
	keys     []*tensor.Tensor
	values   []*tensor.Tensor
}

// NewDecodeState allocates per-block caches for up to capacity
// positions of hidden size dim.
func (s *BodySection) NewDecodeState(capacity, dim int) (*BodyDecodeState, error) {
	if capacity <= 0 || dim <= 0 {
		return nil, fmt.Errorf("%w: decode capacity %d dim %d", ErrConfig, capacity, dim)
	}
	st := &BodyDecodeState{
		capacity: capacity,
		keys:     make([]*tensor.Tensor, len(s.blocks)),
		values:   make([]*tensor.Tensor, len(s.blocks)),
	}
	for i := range s.blocks {
		st.keys[i] = tensor.New(capacity, dim)
		st.values[i] = tensor.New(capacity, dim)
	}
	return st, nil
}

// Len returns the number of cached positions.
func (s *BodyDecodeState) Len() int { return s.length }

// Capacity returns the maximum cached positions.
func (s *BodyDecodeState) Capacity() int { return s.capacity }

// Bytes returns the KV-cache footprint.
func (s *BodyDecodeState) Bytes() int64 {
	var b int64
	for i := range s.keys {
		b += s.keys[i].Bytes() + s.values[i].Bytes()
	}
	return b
}

// DecodeStep advances the body by one position: x is the (1, dim)
// activation arriving from the client's input section at the next
// position; the return value is the (1, dim) activation for the
// client's output section.
func (s *BodySection) DecodeStep(x *tensor.Tensor, st *BodyDecodeState) (*tensor.Tensor, error) {
	if st == nil || len(st.keys) != len(s.blocks) {
		return nil, fmt.Errorf("%w: decode state does not match body", ErrConfig)
	}
	if st.length >= st.capacity {
		return nil, fmt.Errorf("%w: decode state full (%d positions)", ErrConfig, st.capacity)
	}
	if x.Rank() != 2 || x.Dim(0) != 1 {
		return nil, fmt.Errorf("%w: decode input %v, want (1, dim)", ErrConfig, x.Shape())
	}
	pos := st.length
	for i, b := range s.blocks {
		y, err := b.DecodeStep(x, pos, st.keys[i], st.values[i])
		if err != nil {
			return nil, fmt.Errorf("decode body block %d: %w", i, err)
		}
		x = y
	}
	st.length++
	return x, nil
}
