package model

import (
	"fmt"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// Transformer is a full decoder-only language model.
type Transformer struct {
	Cfg    Config
	Embed  *nn.Embedding
	Pos    *nn.Embedding // learned positions; nil for Llama (RoPE)
	Blocks []*Block
	Norm   nn.Op // final norm before the LM head
	LMHead *nn.Linear

	// scratch is the step-scoped buffer arena shared by every block
	// (and every shallow clone of them), so steady-state training
	// steps reuse activations and gradients instead of allocating.
	scratch *tensor.Scratch
}

// New constructs a transformer with freshly initialized weights drawn
// from rng. A nil rng builds the structure with zero weights, for a
// weights file to fill (checkpoint.LoadModel).
func New(rng *tensor.RNG, cfg Config) (*Transformer, error) {
	return build(rng, cfg, cfg.Layers)
}

// NewSections constructs only what a split client holds at cut: the
// embeddings, blocks [0, cut), the final norm and the LM head, each
// bit-equal to the same-named parameter of New(rng, cfg). The body
// blocks [cut, Layers), which the server holds, are neither allocated
// nor drawn. A nil rng leaves every weight zero, as for New.
func NewSections(rng *tensor.RNG, cfg Config, cut int) (*Transformer, error) {
	if cut < 1 || cut >= cfg.Layers {
		return nil, fmt.Errorf("%w: cut %d for %d layers", ErrConfig, cut, cfg.Layers)
	}
	return build(rng, cfg, cut)
}

// Scratch exposes the model's buffer arena (nil for a zero-value
// Transformer, which degrades to plain allocation everywhere).
func (t *Transformer) Scratch() *tensor.Scratch { return t.scratch }

// setScratch attaches the arena to the block and its submodules,
// including every parameter layer that can draw outputs from it.
func (b *Block) setScratch(sc *tensor.Scratch) {
	b.scratch = sc
	b.Attn.scratch = sc
	b.FFN.scratch = sc
	setOpScratch(sc, b.Norm1, b.Norm2,
		b.Attn.Q, b.Attn.K, b.Attn.V, b.Attn.O,
		b.FFN.Up, b.FFN.Down, b.FFN.Gate)
}

// setOpScratch attaches the arena to every op that supports one; nil
// ops (e.g. the absent Gate of an OPT FFN) are skipped.
func setOpScratch(sc *tensor.Scratch, ops ...nn.Op) {
	for _, op := range ops {
		if op == nil {
			continue
		}
		if u, ok := op.(nn.ScratchUser); ok {
			u.SetScratch(sc)
		}
	}
}

// SetFrozenBase freezes (or unfreezes) every base parameter: embedding,
// positions, all blocks, final norm and LM head. Adapter parameters are
// managed separately by the adapter package.
func (t *Transformer) SetFrozenBase(frozen bool) {
	t.Embed.Frozen = frozen
	if t.Pos != nil {
		t.Pos.Frozen = frozen
	}
	for _, b := range t.Blocks {
		b.SetFrozen(frozen)
	}
	t.Norm.SetFrozen(frozen)
	t.LMHead.Frozen = frozen
}

// Params returns all trainable parameters.
func (t *Transformer) Params() []nn.Param {
	var ps []nn.Param
	ps = append(ps, nn.Prefixed("embed", t.Embed.Params())...)
	if t.Pos != nil {
		ps = append(ps, nn.Prefixed("pos", t.Pos.Params())...)
	}
	for i, b := range t.Blocks {
		ps = append(ps, nn.Prefixed(fmt.Sprintf("block%d", i), b.Params())...)
	}
	ps = append(ps, nn.Prefixed("norm", t.Norm.Params())...)
	ps = append(ps, nn.Prefixed("lmhead", t.LMHead.Params())...)
	return ps
}

// positions returns [0..seq) repeated for each batch element, the index
// input to the learned position embedding.
func positions(batch, seq int) []int {
	ids := make([]int, batch*seq)
	for b := 0; b < batch; b++ {
		for p := 0; p < seq; p++ {
			ids[b*seq+p] = p
		}
	}
	return ids
}
