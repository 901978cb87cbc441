// Multi-adapter row dispatch: one batched kernel invocation over the
// shared frozen base applies each client's private LoRA residual to
// that client's own row segment of the stacked activation tensor
// (docs/BATCHING.md). The bit-identity argument rests on two repo
// invariants: every matmul kernel reduces in ascending order per
// output element regardless of how rows are grouped
// (internal/tensor/matmul.go), and the frozen base accumulates no
// weight gradients, so K clients stacked row-wise see exactly the
// arithmetic K serial passes would.
package adapter

import (
	"fmt"

	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

// Segment is one client's row share of a batched projection: Rows
// consecutive rows of the stacked input dispatched through that
// client's own LoRALinear parameters (values and gradients alike).
type Segment struct {
	Rows  int
	Layer *LoRALinear
}

// MultiLoRALinear computes, for a stacked input whose row segments
// belong to different clients,
//
//	y[seg_k] = Base(x)[seg_k] + scale_k · (x[seg_k] A_k) B_k
//
// with one base invocation over the full stack and a per-segment
// low-rank residual. Gradients flow into each segment's own A/B grad
// buffers; the base runs frozen, so nothing is shared mutable state.
// Segment ranks and scales may differ — only the base projection and
// the row partition are common.
type MultiLoRALinear struct {
	Base     nn.Op
	Segments []Segment

	in, out int
}

var _ nn.Op = (*MultiLoRALinear)(nil)

// multiCache retains the batched forward intermediates: the stacked
// input and each segment's xA product.
type multiCache struct {
	baseC any
	x     *tensor.Tensor
	xas   []*tensor.Tensor
}

// Bytes implements nn.SizedCache.
func (c *multiCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	b := nn.CacheBytes(c.baseC)
	if c.x != nil {
		b += c.x.Bytes()
	}
	for _, xa := range c.xas {
		b += xa.Bytes()
	}
	return b
}

// NewMultiLoRALinear builds a batched projection over base (in → out
// features) dispatching rows to segments. Every segment layer must
// adapt the same feature shape.
func NewMultiLoRALinear(base nn.Op, in, out int, segments []Segment) (*MultiLoRALinear, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("%w: multi-lora needs at least one segment", ErrAdapter)
	}
	for i, s := range segments {
		if s.Rows <= 0 {
			return nil, fmt.Errorf("%w: segment %d has %d rows", ErrAdapter, i, s.Rows)
		}
		if s.Layer == nil {
			return nil, fmt.Errorf("%w: segment %d has no layer", ErrAdapter, i)
		}
		if s.Layer.in != in || s.Layer.out != out {
			return nil, fmt.Errorf("%w: segment %d adapts (%d→%d), base is (%d→%d)",
				ErrAdapter, i, s.Layer.in, s.Layer.out, in, out)
		}
	}
	return &MultiLoRALinear{Base: base, Segments: segments, in: in, out: out}, nil
}

// totalRows sums the segment partition.
func (l *MultiLoRALinear) totalRows() int {
	n := 0
	for _, s := range l.Segments {
		n += s.Rows
	}
	return n
}

// Apply implements nn.Op: one frozen-base pass over the full stack,
// then each segment's own LoRALinear residual in ascending row order.
func (l *MultiLoRALinear) Apply(x *tensor.Tensor, withGrad bool) (*tensor.Tensor, any, error) {
	if want := l.totalRows(); x.Dim(0) != want {
		return nil, nil, fmt.Errorf("%w: stacked input has %d rows, segments partition %d",
			ErrAdapter, x.Dim(0), want)
	}
	y, baseC, err := l.Base.Apply(x, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("multi-lora base: %w", err)
	}
	xas := make([]*tensor.Tensor, len(l.Segments))
	lo := 0
	for i, s := range l.Segments {
		hi := lo + s.Rows
		xs, err := x.Slice2D(lo, hi)
		if err != nil {
			return nil, nil, fmt.Errorf("multi-lora segment %d input: %w", i, err)
		}
		ys, err := y.Slice2D(lo, hi)
		if err != nil {
			return nil, nil, fmt.Errorf("multi-lora segment %d output: %w", i, err)
		}
		if xas[i], err = s.Layer.residual(xs, ys, withGrad); err != nil {
			return nil, nil, fmt.Errorf("multi-lora segment %d: %w", i, err)
		}
		lo = hi
	}
	if !withGrad {
		return y, nil, nil
	}
	return y, &multiCache{baseC: baseC, x: x, xas: xas}, nil
}

// Grad implements nn.Op: the frozen base backward runs once over the
// full stacked dy (accumulating no base weight gradients), then each
// segment's LoRALinear residual backward runs over its own rows,
// accumulating into that client's private A/B gradient buffers. Like
// LoRALinear.Grad it consumes the cache of every segment whose layer
// has an arena.
func (l *MultiLoRALinear) Grad(cache any, dy *tensor.Tensor, needDX bool) (*tensor.Tensor, error) {
	c, ok := cache.(*multiCache)
	if !ok {
		return nil, fmt.Errorf("multi-lora: unexpected cache type %T", cache)
	}
	dx, err := l.Base.Grad(c.baseC, dy, needDX)
	if err != nil {
		return nil, fmt.Errorf("multi-lora base backward: %w", err)
	}
	lo := 0
	for i, s := range l.Segments {
		hi := lo + s.Rows
		dys, err := dy.Slice2D(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("multi-lora segment %d dy: %w", i, err)
		}
		xs, err := c.x.Slice2D(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("multi-lora segment %d x: %w", i, err)
		}
		var dxs *tensor.Tensor
		if dx != nil {
			if dxs, err = dx.Slice2D(lo, hi); err != nil {
				return nil, fmt.Errorf("multi-lora segment %d dx: %w", i, err)
			}
		}
		if err := s.Layer.residualGrad(xs, c.xas[i], dys, dxs); err != nil {
			return nil, fmt.Errorf("multi-lora segment %d: %w", i, err)
		}
		if s.Layer.scratch != nil {
			c.xas[i] = nil
		}
		lo = hi
	}
	return dx, nil
}

// Params returns every segment's adapter parameters plus any trainable
// base parameters (none when the base is frozen, which is the only
// supported batched configuration).
func (l *MultiLoRALinear) Params() []nn.Param {
	var ps []nn.Param
	for _, s := range l.Segments {
		ps = append(ps, s.Layer.A, s.Layer.B)
	}
	return append(ps, l.Base.Params()...)
}

// Trains implements nn.Op: every segment's A and B train.
func (l *MultiLoRALinear) Trains() bool { return true }

// SetFrozen forwards to the base projection.
func (l *MultiLoRALinear) SetFrozen(frozen bool) { l.Base.SetFrozen(frozen) }

// InjectMultiLoRA wraps the targeted projections of every block with
// multi-adapter layers that dispatch rows[k] consecutive rows of the
// stacked input through members[k]'s LoRA parameters. members[k] must
// be the ordered LoRAAdapter.Layers() of a client whose adapter was
// injected with the same targets over the same block range — the slot
// order (block-major, then target order) is how member layer i maps to
// block i/len(targets), target i%len(targets). The blocks should be
// pristine shallow clones of the shared base: injecting over an
// already-adapted slot is an error, because it would nest residuals.
// It returns the injected layers, which live as long as the blocks:
// one batched invocation's.
func InjectMultiLoRA(blocks []*model.Block, targets []Target, members [][]*LoRALinear, rows []int) ([]*MultiLoRALinear, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: no targets", ErrAdapter)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: no batch members", ErrAdapter)
	}
	if len(members) != len(rows) {
		return nil, fmt.Errorf("%w: %d members but %d row counts", ErrAdapter, len(members), len(rows))
	}
	want := len(blocks) * len(targets)
	for k, ls := range members {
		if len(ls) != want {
			return nil, fmt.Errorf("%w: member %d has %d LoRA layers, need %d (%d blocks × %d targets)",
				ErrAdapter, k, len(ls), want, len(blocks), len(targets))
		}
		if rows[k] <= 0 {
			return nil, fmt.Errorf("%w: member %d contributes %d rows", ErrAdapter, k, rows[k])
		}
	}
	var layers []*MultiLoRALinear
	for bi, b := range blocks {
		attn := b.Attn
		for ti, target := range targets {
			slot, err := projSlot(attn, target)
			if err != nil {
				return nil, err
			}
			base := *slot
			switch base.(type) {
			case *LoRALinear, *MultiLoRALinear:
				return nil, fmt.Errorf("%w: block %d target %v already carries an adapter (inject over a pristine clone)",
					ErrAdapter, bi, target)
			}
			lin, ok := base.(interface {
				In() int
				Out() int
			})
			if !ok {
				return nil, fmt.Errorf("%w: block %d target %v is not a linear-like projection (%T)",
					ErrAdapter, bi, target, base)
			}
			segs := make([]Segment, len(members))
			for k := range members {
				segs[k] = Segment{Rows: rows[k], Layer: members[k][bi*len(targets)+ti]}
			}
			ml, err := NewMultiLoRALinear(base, lin.In(), lin.Out(), segs)
			if err != nil {
				return nil, fmt.Errorf("block %d target %v: %w", bi, target, err)
			}
			*slot = ml
			layers = append(layers, ml)
		}
	}
	return layers, nil
}
