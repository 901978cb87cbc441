package model

import (
	"fmt"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// The three-way topological split of §2.2 / Fig. 1:
//
//	InputSection  (client): embeddings + blocks [0, cut)
//	BodySection   (server): blocks [cut, Layers)
//	OutputSection (client): final norm + LM head (+ loss)
//
// The default cut of 1 matches the paper's evaluation setup, where the
// embedding layer, output layer and the first transformer block run on
// the client.

// DefaultCut is the paper's evaluation cut point.
const DefaultCut = 1

// InputSection is the client-side front of the model.
type InputSection struct {
	model *Transformer
	cut   int
}

// InputCache retains the input section's activations.
type InputCache struct {
	Batch, Seq int
	EmbC       *nn.EmbeddingCache
	PosC       *nn.EmbeddingCache
	BlockCs    []*BlockCache
}

// Bytes reports retained activation size.
func (c *InputCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	b := c.EmbC.Bytes() + c.PosC.Bytes()
	for _, bc := range c.BlockCs {
		b += bc.Bytes()
	}
	return b
}

// BodySection is the server-side middle of the model.
type BodySection struct {
	blocks []*Block
}

// BodyCache retains the body's activations; this is the dominant 𝕀
// term the Menos server releases and recomputes.
type BodyCache struct {
	Batch, Seq int
	BlockCs    []*BlockCache
}

// Bytes reports retained activation size.
func (c *BodyCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var b int64
	for _, bc := range c.BlockCs {
		b += bc.Bytes()
	}
	return b
}

// OutputSection is the client-side tail of the model.
type OutputSection struct {
	model *Transformer
}

// OutputCache retains the output section's activations.
type OutputCache struct {
	NormC any
	HeadC *nn.LinearCache
}

// Bytes reports retained activation size.
func (c *OutputCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return nn.CacheBytes(c.NormC) + c.HeadC.Bytes()
}

// Split partitions the model at the given cut layer. The client keeps
// blocks [0, cut); the server receives blocks [cut, Layers). A cut of
// DefaultCut (1) reproduces the paper's setup. cut must satisfy
// 1 <= cut < Layers so both sides hold at least one block, and the
// model must hold every block: a NewSections model has no body to give.
func (t *Transformer) Split(cut int) (*InputSection, *BodySection, *OutputSection, error) {
	if len(t.Blocks) != t.Cfg.Layers {
		return nil, nil, nil, fmt.Errorf("%w: model holds %d of %d blocks", ErrConfig, len(t.Blocks), t.Cfg.Layers)
	}
	input, output, err := t.Sections(cut)
	if err != nil {
		return nil, nil, nil, err
	}
	return input, &BodySection{blocks: t.Blocks[cut:]}, output, nil
}

// Sections returns the client's two sections at cut: the input section
// over blocks [0, cut) and the output section. The model is a full one
// or a NewSections one built at cut.
func (t *Transformer) Sections(cut int) (*InputSection, *OutputSection, error) {
	if cut < 1 || cut >= t.Cfg.Layers || cut > len(t.Blocks) {
		return nil, nil, fmt.Errorf("%w: cut %d for %d layers, %d held", ErrConfig, cut, t.Cfg.Layers, len(t.Blocks))
	}
	return &InputSection{model: t, cut: cut}, &OutputSection{model: t}, nil
}

// Body returns a BodySection over an explicit block slice; used by the
// server when assembling a per-client instance from shared parameters.
func Body(blocks []*Block) *BodySection {
	return &BodySection{blocks: blocks}
}

// scratch returns the buffer arena the section's blocks share (nil
// when the blocks were built without one).
func (s *BodySection) scratch() *tensor.Scratch {
	if len(s.blocks) == 0 {
		return nil
	}
	return s.blocks[0].scratch
}

// Forward embeds ids (length batch*seq, row-major by batch) and runs
// the client-side blocks, producing the intermediate activations x_c
// that are sent to the server.
func (s *InputSection) Forward(ids []int, batch, seq int, withGrad bool) (*tensor.Tensor, *InputCache, error) {
	if len(ids) != batch*seq {
		return nil, nil, fmt.Errorf("input section: %d ids for batch %d x seq %d: %w",
			len(ids), batch, seq, tensor.ErrShape)
	}
	var cache *InputCache
	if withGrad {
		cache = &InputCache{Batch: batch, Seq: seq}
	}
	var embC *nn.EmbeddingCache
	if withGrad {
		embC = &nn.EmbeddingCache{}
	}
	x, err := s.model.Embed.Forward(ids, embC)
	if err != nil {
		return nil, nil, fmt.Errorf("input embedding: %w", err)
	}
	if s.model.Pos != nil {
		var posC *nn.EmbeddingCache
		if withGrad {
			posC = &nn.EmbeddingCache{}
		}
		pos, err := s.model.Pos.Forward(positions(batch, seq), posC)
		if err != nil {
			return nil, nil, fmt.Errorf("input positions: %w", err)
		}
		if err := tensor.Add(x, x, pos); err != nil {
			return nil, nil, fmt.Errorf("input position add: %w", err)
		}
		s.model.scratch.Put(pos)
		if cache != nil {
			cache.PosC = posC
		}
	}
	if cache != nil {
		cache.EmbC = embC
	}
	for i := 0; i < s.cut; i++ {
		y, bc, err := s.model.Blocks[i].Forward(x, batch, seq, withGrad)
		if err != nil {
			return nil, nil, fmt.Errorf("input block %d: %w", i, err)
		}
		if cache == nil {
			// No-grad pass: x (the embedding sum or a previous block's
			// output, both owned here) is dead once the block consumed it.
			s.model.scratch.Put(x)
		}
		x = y
		if cache != nil {
			cache.BlockCs = append(cache.BlockCs, bc)
		}
	}
	return x, cache, nil
}

// Backward propagates the gradient g_s (received from the server) back
// through the client-side blocks and into the embeddings.
func (s *InputSection) Backward(cache *InputCache, dy *tensor.Tensor) error {
	if cache == nil {
		return fmt.Errorf("input section backward: no cached activations")
	}
	orig := dy
	for i := len(cache.BlockCs) - 1; i >= 0; i-- {
		bc := cache.BlockCs[i]
		dx, err := s.model.Blocks[i].Backward(bc, dy)
		if err != nil {
			return fmt.Errorf("input block %d backward: %w", i, err)
		}
		// Every block input is the section's own: the embedding sum or
		// the previous block's output, dead once its block is done.
		s.model.scratch.Put(bc.X)
		bc.X = nil
		if dy != orig {
			s.model.scratch.Put(dy)
		}
		dy = dx
	}
	if s.model.Pos != nil && cache.PosC != nil {
		if err := s.model.Pos.Backward(cache.PosC, dy); err != nil {
			return fmt.Errorf("input positions backward: %w", err)
		}
	}
	if err := s.model.Embed.Backward(cache.EmbC, dy); err != nil {
		return fmt.Errorf("input embedding backward: %w", err)
	}
	if dy != orig {
		s.model.scratch.Put(dy)
	}
	return nil
}

// Forward runs the server-side blocks over x_c, producing x_s. With
// withGrad=false this is the paper's non-gradient first forward pass.
func (s *BodySection) Forward(x *tensor.Tensor, batch, seq int, withGrad bool) (*tensor.Tensor, *BodyCache, error) {
	var cache *BodyCache
	if withGrad {
		cache = &BodyCache{Batch: batch, Seq: seq, BlockCs: make([]*BlockCache, 0, len(s.blocks))}
	}
	for i, b := range s.blocks {
		y, bc, err := b.Forward(x, batch, seq, withGrad)
		if err != nil {
			return nil, nil, fmt.Errorf("body block %d: %w", i, err)
		}
		if cache == nil && i > 0 {
			// No-grad pass: x is a previous block's output (owned here,
			// never the caller's input) and dead once consumed.
			s.scratch().Put(x)
		}
		x = y
		if cache != nil {
			cache.BlockCs = append(cache.BlockCs, bc)
		}
	}
	return x, cache, nil
}

// Backward propagates the gradient g_c (received from the client)
// through the server-side blocks, producing g_s for the client.
func (s *BodySection) Backward(cache *BodyCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil || len(cache.BlockCs) != len(s.blocks) {
		return nil, fmt.Errorf("body backward: missing or mismatched cache")
	}
	orig := dy
	for i := len(s.blocks) - 1; i >= 0; i-- {
		bc := cache.BlockCs[i]
		dx, err := s.blocks[i].Backward(bc, dy)
		if err != nil {
			return nil, fmt.Errorf("body block %d backward: %w", i, err)
		}
		if i > 0 {
			// A previous block's output, owned here and dead once this
			// block is done; block 0's input is the caller's x_c.
			s.scratch().Put(bc.X)
			bc.X = nil
		}
		if dy != orig {
			s.scratch().Put(dy)
		}
		dy = dx
	}
	return dy, nil
}

// Blocks exposes the underlying block slice (read-only use).
func (s *BodySection) Blocks() []*Block { return s.blocks }

// Forward computes logits from the server activations x_s.
func (s *OutputSection) Forward(x *tensor.Tensor, withGrad bool) (*tensor.Tensor, *OutputCache, error) {
	n, normC, err := s.model.Norm.Apply(x, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("output norm: %w", err)
	}
	var headC *nn.LinearCache
	if withGrad {
		headC = &nn.LinearCache{}
	}
	logits, err := s.model.LMHead.Forward(n, headC)
	if err != nil {
		return nil, nil, fmt.Errorf("output head: %w", err)
	}
	if !withGrad {
		s.model.scratch.Put(n)
		return logits, nil, nil
	}
	return logits, &OutputCache{NormC: normC, HeadC: headC}, nil
}

// Backward propagates dlogits back to the cut point, producing the
// gradient g_c that the client sends to the server.
func (s *OutputSection) Backward(cache *OutputCache, dlogits *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil {
		return nil, fmt.Errorf("output section backward: no cached activations")
	}
	dn, err := s.model.LMHead.Backward(cache.HeadC, dlogits)
	if err != nil {
		return nil, fmt.Errorf("output head backward: %w", err)
	}
	dx, err := s.model.Norm.Grad(cache.NormC, dn)
	if err != nil {
		return nil, fmt.Errorf("output norm backward: %w", err)
	}
	// The norm's output, the head's input, was last read by the head's
	// backward just above.
	s.model.scratch.Put(dn, cache.HeadC.X)
	cache.HeadC.X = nil
	return dx, nil
}
