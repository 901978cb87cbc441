package model

import (
	"fmt"

	"menos/internal/nn"
)

// BaseParams enumerates every base parameter of a pristine model
// (embeddings, blocks, final norm, head) regardless of frozen state,
// with stable names. This is the unit the model owner distributes:
// weights export/import for loading a pre-trained model instead of
// deriving it from a seed.
//
// The model must be pristine — no adapters attached — because an
// adapter-wrapped projection no longer exposes its base parameters
// under the original names; BaseParams rejects wrapped models.
func (t *Transformer) BaseParams() ([]nn.Param, error) {
	var ps []nn.Param
	add := func(prefix string, params []nn.Param) {
		ps = append(ps, nn.Prefixed(prefix, params)...)
	}
	add("embed", []nn.Param{t.Embed.Table})
	if t.Pos != nil {
		add("pos", []nn.Param{t.Pos.Table})
	}
	for i, b := range t.Blocks {
		params, err := blockBaseParams(i, b)
		if err != nil {
			return nil, err
		}
		ps = append(ps, params...)
	}
	normParams, err := baseOpParams(t.Norm)
	if err != nil {
		return nil, fmt.Errorf("final norm: %w", err)
	}
	add("norm", normParams)
	add("lmhead", []nn.Param{t.LMHead.W})
	return ps, nil
}

// ParamShape names a base parameter a model does not hold, with the
// shape a weights file stores for it.
type ParamShape struct {
	Name  string
	Shape []int
}

// AbsentBaseParams lists the base parameters of t's configuration that
// t does not hold: those of blocks [len(Blocks), Layers) of a
// NewSections model, named as the full model's BaseParams names them;
// none for a full model. A weights file of the full model holds them
// too, and a loader checks them record for record. Every block of a
// configuration has block 0's shapes.
func (t *Transformer) AbsentBaseParams() ([]ParamShape, error) {
	var out []ParamShape
	for i := len(t.Blocks); i < t.Cfg.Layers; i++ {
		params, err := blockBaseParams(i, t.Blocks[0])
		if err != nil {
			return nil, err
		}
		for _, p := range params {
			out = append(out, ParamShape{Name: p.Name, Shape: p.Value.Shape()})
		}
	}
	return out, nil
}

// blockBaseParams is b's base parameters named as block i's.
func blockBaseParams(i int, b *Block) ([]nn.Param, error) {
	prefix := fmt.Sprintf("block%d", i)
	ops := []struct {
		name string
		op   nn.Op
	}{
		{"norm1", b.Norm1}, {"attn.q", b.Attn.Q}, {"attn.k", b.Attn.K},
		{"attn.v", b.Attn.V}, {"attn.o", b.Attn.O}, {"norm2", b.Norm2},
		{"ffn.up", b.FFN.Up}, {"ffn.down", b.FFN.Down},
	}
	if b.FFN.Gate != nil {
		ops = append(ops, struct {
			name string
			op   nn.Op
		}{"ffn.gate", b.FFN.Gate})
	}
	var ps []nn.Param
	for _, o := range ops {
		params, err := baseOpParams(o.op)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", prefix, o.name, err)
		}
		ps = append(ps, nn.Prefixed(prefix+"."+o.name, params)...)
	}
	if b.Attn.Prefix != nil {
		return nil, fmt.Errorf("%w: block %d has a prefix adapter attached", ErrConfig, i)
	}
	return ps, nil
}

// baseOpParams extracts the parameters of a plain (unwrapped) layer.
func baseOpParams(op nn.Op) ([]nn.Param, error) {
	switch l := op.(type) {
	case *nn.Linear:
		ps := []nn.Param{l.W}
		if l.B.Value != nil {
			ps = append(ps, l.B)
		}
		return ps, nil
	case *nn.LayerNorm:
		return []nn.Param{l.Gamma, l.Beta}, nil
	case *nn.RMSNorm:
		return []nn.Param{l.Gamma}, nil
	default:
		return nil, fmt.Errorf("%w: projection wrapped (%T); export weights before modifying the model",
			ErrConfig, op)
	}
}
