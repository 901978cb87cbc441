package model

import (
	"fmt"

	"menos/internal/tensor"
)

// Incremental decoding: one forward pass per new token over per-block
// KV caches instead of re-running the whole window. A decode step is
// the full forward's last row computed by the same code (Block.forward,
// Attention.attend), so a decoded position's logits are bit-equal to
// that row of a no-grad forward over every position so far. Decoding
// runs split like training: the client's InputSection and the server's
// BodySection each decode their blocks over their own DecodeState, and
// the client's OutputSection turns the result into logits. The server's
// state is per-session inference memory — the inference-time analogue
// of the 𝕀 term Menos manages during training.

// decodeStep is Forward for the single row x at position pos: the row's
// key and value enter row pos of the caches, and its query attends over
// the prefix slots and the cached positions [0, pos].
func (a *Attention) decodeStep(x *tensor.Tensor, pos int, kCache, vCache *tensor.Tensor) (*tensor.Tensor, error) {
	dim := a.heads * a.headDim
	q, _, err := a.Q.Apply(x, false)
	if err != nil {
		return nil, fmt.Errorf("attention q: %w", err)
	}
	k, _, err := a.K.Apply(x, false)
	if err != nil {
		return nil, fmt.Errorf("attention k: %w", err)
	}
	v, _, err := a.V.Apply(x, false)
	if err != nil {
		return nil, fmt.Errorf("attention v: %w", err)
	}
	if a.rope != nil {
		for h := 0; h < a.heads; h++ {
			a.rope.apply(q.Data()[h*a.headDim:(h+1)*a.headDim], pos, false)
			a.rope.apply(k.Data()[h*a.headDim:(h+1)*a.headDim], pos, false)
		}
	}
	copy(kCache.Data()[pos*dim:(pos+1)*dim], k.Data())
	copy(vCache.Data()[pos*dim:(pos+1)*dim], v.Data())

	sc := a.scratch
	ctx := sc.Get(1, dim)
	err = a.attend(ctx, nil, q, kCache, vCache, 1, 1, pos+1)
	sc.Put(q, k, v)
	if err != nil {
		sc.Put(ctx)
		return nil, err
	}
	y, _, err := a.O.Apply(ctx, false)
	sc.Put(ctx)
	if err != nil {
		return nil, fmt.Errorf("attention o: %w", err)
	}
	return y, nil
}

// DecodeState holds one section's key and value caches for incremental
// decoding, one pair per block, and how many positions they hold. The
// client keeps one for its input section; a Menos server keeps one per
// decode session for the body, and its Bytes() footprint is what the
// server reserves from the scheduler for the session's lifetime.
type DecodeState struct {
	capacity int
	dim      int
	length   int
	keys     []*tensor.Tensor
	values   []*tensor.Tensor
}

func newDecodeState(blocks, capacity, dim int) (*DecodeState, error) {
	if capacity <= 0 || dim <= 0 {
		return nil, fmt.Errorf("%w: decode capacity %d dim %d", ErrConfig, capacity, dim)
	}
	st := &DecodeState{
		capacity: capacity,
		dim:      dim,
		keys:     make([]*tensor.Tensor, blocks),
		values:   make([]*tensor.Tensor, blocks),
	}
	for i := range st.keys {
		st.keys[i] = tensor.New(capacity, dim)
		st.values[i] = tensor.New(capacity, dim)
	}
	return st, nil
}

// NewDecodeState allocates the body's caches for up to capacity
// positions of hidden size dim.
func (s *BodySection) NewDecodeState(capacity, dim int) (*DecodeState, error) {
	return newDecodeState(len(s.blocks), capacity, dim)
}

// NewDecodeState allocates the input section's caches for up to
// capacity positions, at most the model's MaxSeq.
func (s *InputSection) NewDecodeState(capacity int) (*DecodeState, error) {
	if capacity > s.model.Cfg.MaxSeq {
		return nil, fmt.Errorf("%w: decode capacity %d exceeds MaxSeq %d", ErrConfig, capacity, s.model.Cfg.MaxSeq)
	}
	return newDecodeState(s.cut, capacity, s.model.Cfg.Dim)
}

// Len returns the number of cached positions.
func (s *DecodeState) Len() int { return s.length }

// Capacity returns the maximum cached positions.
func (s *DecodeState) Capacity() int { return s.capacity }

// Bytes returns the KV-cache footprint.
func (s *DecodeState) Bytes() int64 {
	var b int64
	for i := range s.keys {
		b += s.keys[i].Bytes() + s.values[i].Bytes()
	}
	return b
}

// step runs blocks over the (1, dim) row x at the next position and
// advances the state. x stays the caller's.
func (s *DecodeState) step(blocks []*Block, x *tensor.Tensor) (*tensor.Tensor, error) {
	if s == nil || len(s.keys) != len(blocks) {
		return nil, fmt.Errorf("%w: decode state does not match the section", ErrConfig)
	}
	if s.length >= s.capacity {
		return nil, fmt.Errorf("%w: decode state full (%d positions)", ErrConfig, s.capacity)
	}
	if x.Rank() != 2 || x.Dim(0) != 1 || x.Dim(1) != s.dim {
		return nil, fmt.Errorf("%w: decode input %v, want (1, %d)", ErrConfig, x.Shape(), s.dim)
	}
	for i, b := range blocks {
		y, err := b.decodeStep(x, s.length, s.keys[i], s.values[i])
		if err != nil {
			return nil, fmt.Errorf("decode block %d: %w", i, err)
		}
		if i > 0 {
			b.scratch.Put(x)
		}
		x = y
	}
	s.length++
	return x, nil
}

// DecodeStep embeds token at the state's next position, adds that
// position's learned embedding (OPT) and runs the input blocks over it,
// returning the (1, dim) activation for the body.
func (s *InputSection) DecodeStep(token int, st *DecodeState) (*tensor.Tensor, error) {
	x, err := s.model.Embed.Forward([]int{token}, nil)
	if err != nil {
		return nil, fmt.Errorf("decode embedding: %w", err)
	}
	defer s.model.scratch.Put(x)
	if s.model.Pos != nil {
		pos, err := s.model.Pos.Forward([]int{st.length}, nil)
		if err != nil {
			return nil, fmt.Errorf("decode position: %w", err)
		}
		if err := tensor.Add(x, x, pos); err != nil {
			return nil, fmt.Errorf("decode position add: %w", err)
		}
		s.model.scratch.Put(pos)
	}
	return st.step(s.model.Blocks[:s.cut], x)
}

// DecodeStep advances the body by one position: x is the (1, dim)
// activation arriving from the client's input section at the next
// position; the return value is the (1, dim) activation for the
// client's output section.
func (s *BodySection) DecodeStep(x *tensor.Tensor, st *DecodeState) (*tensor.Tensor, error) {
	return st.step(s.blocks, x)
}
