package model

import (
	"fmt"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// Structural cloning for base-model sharing (§3.1, Fig. 2).
//
// A shallow clone creates new structure objects (Block, Attention, FFN)
// whose operator fields reference the *same* parameter-bearing layers
// as the original. Parameters therefore exist once in memory, while
// each clone's structure can be independently modified — adapters
// wrap a clone's projection slots without affecting the original or
// any sibling clone. This is exactly the paper's "separate the model
// parameters from the model structure". CloneBlocks goes one level
// further down: the operators themselves are new structs over the same
// parameter tensors, so a clone can draw its temporaries from an arena
// of its own.

// ShallowClone returns a structurally independent copy of the block
// that shares every parameter-bearing operator, and the buffer arena,
// with b. Any attached prefix adapter is not carried over: clones start
// pristine.
func (b *Block) ShallowClone() *Block {
	return &Block{
		Norm1:   b.Norm1,
		Attn:    b.Attn.ShallowClone(),
		Norm2:   b.Norm2,
		FFN:     b.FFN.ShallowClone(),
		scratch: b.scratch, // shared with b's operators, which the clone shares too
	}
}

// ShallowClone returns a new Attention sharing the projection operators
// but owning its own (initially empty) prefix slot.
func (a *Attention) ShallowClone() *Attention {
	return &Attention{
		Q:       a.Q,
		K:       a.K,
		V:       a.V,
		O:       a.O,
		heads:   a.heads,
		headDim: a.headDim,
		rope:    a.rope, // read-only table, safe to share
		scratch: a.scratch,
	}
}

// ShallowClone returns a new FFN sharing the projection operators.
func (f *FFN) ShallowClone() *FFN {
	return &FFN{
		family:  f.family,
		Up:      f.Up,
		Down:    f.Down,
		Gate:    f.Gate,
		scratch: f.scratch,
	}
}

// ShallowCloneBlocks clones a slice of blocks.
func ShallowCloneBlocks(blocks []*Block) []*Block {
	out := make([]*Block, len(blocks))
	for i, b := range blocks {
		out[i] = b.ShallowClone()
	}
	return out
}

// CloneBlocks clones pristine blocks onto the arena sc: every norm and
// projection of a clone is a copy of the original's struct, pointing at
// the same parameter tensors, and the clone and its operators draw
// their temporaries from sc and nowhere else. The blocks must hold
// only the base operators (nn.Linear, nn.LayerNorm, nn.RMSNorm), as a
// model's own blocks do before any adapter is injected.
func CloneBlocks(blocks []*Block, sc *tensor.Scratch) []*Block {
	out := ShallowCloneBlocks(blocks)
	for _, b := range out {
		a, f := b.Attn, b.FFN
		b.Norm1, b.Norm2 = copyOp(b.Norm1), copyOp(b.Norm2)
		a.Q, a.K, a.V, a.O = copyOp(a.Q), copyOp(a.K), copyOp(a.V), copyOp(a.O)
		f.Up, f.Down, f.Gate = copyOp(f.Up), copyOp(f.Down), copyOp(f.Gate)
		b.setScratch(sc)
	}
	return out
}

// copyOp returns a new struct holding op's fields: the same parameters
// and frozen state, an arena of its own to set.
func copyOp(op nn.Op) nn.Op {
	switch o := op.(type) {
	case nil:
		return nil
	case *nn.Linear:
		c := *o
		return &c
	case *nn.LayerNorm:
		c := *o
		return &c
	case *nn.RMSNorm:
		c := *o
		return &c
	}
	panic(fmt.Sprintf("model: CloneBlocks over a %T operator", op))
}
