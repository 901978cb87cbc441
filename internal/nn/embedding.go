package nn

import (
	"fmt"

	"menos/internal/tensor"
)

// Embedding maps token ids to dense vectors via a lookup table of
// shape (vocab, dim).
type Embedding struct {
	Table  Param
	Frozen bool

	scratch *tensor.Scratch // where Forward's output comes from; nil allocates
}

// SetScratch attaches a buffer arena to the layer.
func (e *Embedding) SetScratch(sc *tensor.Scratch) { e.scratch = sc }

// EmbeddingCache retains the looked-up ids for the backward pass.
type EmbeddingCache struct {
	IDs []int
}

// Bytes reports retained activation size (ids stored as int64-ish cost;
// negligible but accounted for completeness).
func (c *EmbeddingCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return int64(len(c.IDs)) * 8
}

// Vocab returns the vocabulary size.
func (e *Embedding) Vocab() int { return e.Table.Value.Dim(0) }

// Dim returns the embedding dimension.
func (e *Embedding) Dim() int { return e.Table.Value.Dim(1) }

// Forward gathers rows of the table for each id, producing a
// (len(ids), dim) tensor.
func (e *Embedding) Forward(ids []int, cache *EmbeddingCache) (*tensor.Tensor, error) {
	dim := e.Dim()
	out := e.scratch.GetUninit(len(ids), dim)
	table := e.Table.Value.Data()
	for i, id := range ids {
		if id < 0 || id >= e.Vocab() {
			e.scratch.Put(out)
			return nil, fmt.Errorf("embedding: id %d out of range [0,%d)", id, e.Vocab())
		}
		copy(out.Data()[i*dim:(i+1)*dim], table[id*dim:(id+1)*dim])
	}
	if cache != nil {
		cache.IDs = ids
	}
	return out, nil
}

// Backward scatter-adds dy rows into the table gradient. There is no dx
// for an embedding (inputs are discrete).
func (e *Embedding) Backward(cache *EmbeddingCache, dy *tensor.Tensor) error {
	if cache == nil {
		return fmt.Errorf("embedding backward: no cached ids")
	}
	if e.Frozen {
		return nil
	}
	dim := e.Dim()
	if dy.Rank() != 2 || dy.Dim(0) != len(cache.IDs) || dy.Dim(1) != dim {
		return fmt.Errorf("embedding backward: dy %v for %d ids, dim %d: %w",
			dy.Shape(), len(cache.IDs), dim, tensor.ErrShape)
	}
	grad := e.Table.Grad.Data()
	for i, id := range cache.IDs {
		row := dy.Data()[i*dim : (i+1)*dim]
		g := grad[id*dim : (id+1)*dim]
		for j, v := range row {
			g[j] += v
		}
	}
	return nil
}

// Params returns the table parameter unless frozen.
func (e *Embedding) Params() []Param {
	if e.Frozen {
		return nil
	}
	return []Param{e.Table}
}
