// Package adapter implements parameter-efficient fine-tuning adapters:
// LoRA (the paper's evaluated method), prefix-tuning, and Houlsby-style
// bottleneck adapters. Adapters attach to a model instance without
// modifying base parameters, which is precisely what makes base-model
// sharing across clients safe (§3.1): the base tensors stay read-only
// while each client owns its private adapter parameters φ.
package adapter

import (
	"errors"
	"fmt"

	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

// ErrAdapter is returned (wrapped) for invalid adapter configurations
// or injection targets.
var ErrAdapter = errors.New("adapter: invalid configuration")

// Target identifies a projection inside a transformer block that an
// adapter can wrap.
type Target int

// Adapter injection targets.
const (
	TargetQ Target = iota + 1
	TargetK
	TargetV
	TargetO
)

// String returns the target's short name.
func (t Target) String() string {
	switch t {
	case TargetQ:
		return "q"
	case TargetK:
		return "k"
	case TargetV:
		return "v"
	case TargetO:
		return "o"
	default:
		return fmt.Sprintf("target(%d)", int(t))
	}
}

// LoRAConfig configures low-rank adaptation. The paper's evaluation
// uses rank 8, alpha 16, targets {q, v} (borrowed from the PEFT
// library's defaults).
type LoRAConfig struct {
	Rank    int
	Alpha   float64
	Targets []Target
}

// DefaultLoRA returns the paper's evaluation configuration: r=8, α=16,
// applied to the query and value projections.
func DefaultLoRA() LoRAConfig {
	return LoRAConfig{Rank: 8, Alpha: 16, Targets: []Target{TargetQ, TargetV}}
}

// Validate checks the configuration.
func (c LoRAConfig) Validate() error {
	if c.Rank <= 0 {
		return fmt.Errorf("%w: rank %d", ErrAdapter, c.Rank)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("%w: alpha %v", ErrAdapter, c.Alpha)
	}
	if len(c.Targets) == 0 {
		return fmt.Errorf("%w: no targets", ErrAdapter)
	}
	for _, t := range c.Targets {
		if t < TargetQ || t > TargetO {
			return fmt.Errorf("%w: unknown target %d", ErrAdapter, int(t))
		}
	}
	return nil
}

// LoRALinear wraps a base projection with a low-rank residual:
//
//	y = Base(x) + (α/r) · (x A) B
//
// where A is (in, r) with small random init and B is (r, out)
// initialized to zero, so a fresh adapter is the identity perturbation.
type LoRALinear struct {
	Base  nn.Op
	A     nn.Param
	B     nn.Param
	Scale float32

	in, out int

	// scratch, when set, supplies the low-rank temporaries of both
	// passes from a shared buffer arena (InjectLoRA hands over the
	// block's); Grad returns the retained xa to it.
	scratch *tensor.Scratch
}

var _ nn.Op = (*LoRALinear)(nil)

// SetScratch attaches a buffer arena to the layer.
func (l *LoRALinear) SetScratch(sc *tensor.Scratch) { l.scratch = sc }

// loraCache retains the LoRA forward intermediates.
type loraCache struct {
	baseC any
	x     *tensor.Tensor
	xa    *tensor.Tensor // x @ A, (rows, r)
}

// Bytes implements nn.SizedCache.
func (c *loraCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	b := nn.CacheBytes(c.baseC)
	if c.x != nil {
		b += c.x.Bytes()
	}
	if c.xa != nil {
		b += c.xa.Bytes()
	}
	return b
}

// NewLoRALinear wraps base (a projection from in to out features) with
// a rank-r adapter.
func NewLoRALinear(rng *tensor.RNG, base nn.Op, in, out, rank int, alpha float64) *LoRALinear {
	return &LoRALinear{
		Base:  base,
		A:     nn.NewParam("lora_a", tensor.NewNormal(rng, 0.02, in, rank)),
		B:     nn.NewParam("lora_b", tensor.New(rank, out)),
		Scale: float32(alpha / float64(rank)),
		in:    in,
		out:   out,
	}
}

// Apply implements nn.Op.
func (l *LoRALinear) Apply(x *tensor.Tensor, withGrad bool) (*tensor.Tensor, any, error) {
	y, baseC, err := l.Base.Apply(x, withGrad)
	if err != nil {
		return nil, nil, fmt.Errorf("lora base: %w", err)
	}
	xa, err := l.residual(x, y, withGrad)
	if err != nil {
		return nil, nil, err
	}
	if !withGrad {
		return y, nil, nil
	}
	return y, &loraCache{baseC: baseC, x: x, xa: xa}, nil
}

// residual is the LoRA forward: it adds the low-rank term to y, the
// base output for x, in place,
//
//	xa = x A        y += (α/r) · xa B
//
// and, when keep is set, returns xa for the backward (residualGrad
// gives it back to the arena). It is written once: LoRALinear runs it
// over every row, MultiLoRALinear over each client's row segment (x and
// y are then views) with that client's layer — which is what makes the
// two bit-identical.
func (l *LoRALinear) residual(x, y *tensor.Tensor, keep bool) (*tensor.Tensor, error) {
	rows, sc := x.Dim(0), l.scratch
	xa := sc.Get(rows, l.A.Value.Dim(1))
	if err := tensor.MatMul(xa, x, l.A.Value); err != nil {
		return nil, fmt.Errorf("lora xA: %w", err)
	}
	delta := sc.Get(rows, l.out)
	if err := tensor.MatMul(delta, xa, l.B.Value); err != nil {
		return nil, fmt.Errorf("lora xAB: %w", err)
	}
	if err := tensor.AXPY(l.Scale, delta, y); err != nil {
		return nil, fmt.Errorf("lora residual: %w", err)
	}
	sc.Put(delta)
	if !keep {
		sc.Put(xa)
		return nil, nil
	}
	return xa, nil
}

// Grad implements nn.Op. With an arena attached it consumes the cache:
// the retained xa goes back to the arena, so Grad can run once per
// Apply. Without one the cache keeps its seed semantics (a second Grad
// over the same cache still works), as LayerNorm's does.
func (l *LoRALinear) Grad(cache any, dy *tensor.Tensor) (*tensor.Tensor, error) {
	c, ok := cache.(*loraCache)
	if !ok {
		return nil, fmt.Errorf("lora: unexpected cache type %T", cache)
	}
	dx, err := l.Base.Grad(c.baseC, dy)
	if err != nil {
		return nil, fmt.Errorf("lora base backward: %w", err)
	}
	if err := l.residualGrad(c.x, c.xa, dy, dx); err != nil {
		return nil, err
	}
	if l.scratch != nil {
		c.xa = nil
	}
	return dx, nil
}

// residualGrad is residual's backward over the same rows: xa is what
// residual returned, dy the output gradient, dx the base's input
// gradient. It accumulates into this layer's own A and B gradients and
// adds the low-rank path's input gradient to dx in place. xa goes back
// to the arena: a caller whose layer has one must drop its reference,
// and a nil xa is a cache some earlier Grad already consumed.
func (l *LoRALinear) residualGrad(x, xa, dy, dx *tensor.Tensor) error {
	if xa == nil {
		return fmt.Errorf("lora backward: cache already consumed")
	}
	rows, sc := x.Dim(0), l.scratch
	// delta = scale * (x A) B
	// dB += scale * (xA)ᵀ dy
	scaled := sc.Get(dy.Shape()...)
	copy(scaled.Data(), dy.Data())
	scaled.Scale(l.Scale)
	if err := tensor.MatMulTAccum(l.B.Grad, xa, scaled); err != nil {
		return fmt.Errorf("lora dB: %w", err)
	}
	// dXA = scale * dy Bᵀ
	dxa := sc.Get(rows, l.A.Value.Dim(1))
	if err := tensor.MatMulT(dxa, scaled, l.B.Value); err != nil {
		return fmt.Errorf("lora dXA: %w", err)
	}
	// dA += xᵀ dXA
	if err := tensor.MatMulTAccum(l.A.Grad, x, dxa); err != nil {
		return fmt.Errorf("lora dA: %w", err)
	}
	// dx += dXA Aᵀ
	dxLora := sc.Get(rows, l.in)
	if err := tensor.MatMulT(dxLora, dxa, l.A.Value); err != nil {
		return fmt.Errorf("lora dx: %w", err)
	}
	if err := tensor.Add(dx, dx, dxLora); err != nil {
		return fmt.Errorf("lora dx sum: %w", err)
	}
	sc.Put(xa, scaled, dxa, dxLora)
	return nil
}

// Params returns the adapter parameters A and B (the base's trainable
// params, if any, are included so optimizers see everything reachable).
func (l *LoRALinear) Params() []nn.Param {
	ps := []nn.Param{l.A, l.B}
	return append(ps, l.Base.Params()...)
}

// SetFrozen forwards to the base projection; LoRA parameters themselves
// are always trainable.
func (l *LoRALinear) SetFrozen(frozen bool) { l.Base.SetFrozen(frozen) }

// ParamCount returns the number of adapter scalars (A and B).
func (l *LoRALinear) ParamCount() int64 {
	return int64(l.A.Value.Len() + l.B.Value.Len())
}

// LoRAAdapter is the set of LoRA layers injected into a model section.
type LoRAAdapter struct {
	Config LoRAConfig

	layers   []*LoRALinear
	restores []func()
}

// InjectLoRA wraps the configured projections of every block with LoRA
// layers. It returns the adapter handle, which owns the new trainable
// parameters and can detach itself via Remove. The blocks' base
// parameters are untouched — only the structural references change,
// exactly the "separate parameters from structure" principle of §3.1.
func InjectLoRA(rng *tensor.RNG, blocks []*model.Block, cfg LoRAConfig) (*LoRAAdapter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ad := &LoRAAdapter{Config: cfg}
	for _, b := range blocks {
		attn := b.Attn
		for _, target := range cfg.Targets {
			slot, err := projSlot(attn, target)
			if err != nil {
				return nil, err
			}
			base := *slot
			if _, already := base.(*LoRALinear); already {
				return nil, fmt.Errorf("%w: target %v already has a LoRA adapter", ErrAdapter, target)
			}
			lin, ok := base.(interface {
				In() int
				Out() int
			})
			if !ok {
				return nil, fmt.Errorf("%w: target %v is not a linear-like projection (%T)",
					ErrAdapter, target, base)
			}
			wrapped := NewLoRALinear(rng.Split(), base, lin.In(), lin.Out(), cfg.Rank, cfg.Alpha)
			wrapped.SetScratch(b.Scratch())
			*slot = wrapped
			ad.layers = append(ad.layers, wrapped)
			slotCopy := slot
			ad.restores = append(ad.restores, func() { *slotCopy = base })
		}
	}
	return ad, nil
}

func projSlot(attn *model.Attention, target Target) (*nn.Op, error) {
	switch target {
	case TargetQ:
		return &attn.Q, nil
	case TargetK:
		return &attn.K, nil
	case TargetV:
		return &attn.V, nil
	case TargetO:
		return &attn.O, nil
	default:
		return nil, fmt.Errorf("%w: unknown target %d", ErrAdapter, int(target))
	}
}

// Params returns all adapter parameters φ.
func (a *LoRAAdapter) Params() []nn.Param {
	var ps []nn.Param
	for i, l := range a.layers {
		ps = append(ps,
			nn.Param{Name: fmt.Sprintf("lora%d.a", i), Value: l.A.Value, Grad: l.A.Grad},
			nn.Param{Name: fmt.Sprintf("lora%d.b", i), Value: l.B.Value, Grad: l.B.Grad},
		)
	}
	return ps
}

// ParamCount returns the total number of adapter scalars.
func (a *LoRAAdapter) ParamCount() int64 {
	var n int64
	for _, l := range a.layers {
		n += l.ParamCount()
	}
	return n
}

// ParamBytes returns the adapter parameter footprint in bytes (the 𝔸
// term of §2.3).
func (a *LoRAAdapter) ParamBytes() int64 { return a.ParamCount() * 4 }

// Remove detaches every LoRA layer, restoring the original projections.
// The underlying base parameters were never modified.
func (a *LoRAAdapter) Remove() {
	for _, restore := range a.restores {
		restore()
	}
	a.restores = nil
	a.layers = nil
}

// Layers returns the injected LoRA layers (read-only use).
func (a *LoRAAdapter) Layers() []*LoRALinear { return a.layers }
