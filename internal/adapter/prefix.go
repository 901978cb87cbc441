package adapter

import (
	"fmt"

	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

// PrefixConfig configures prefix-tuning (Li & Liang 2021): every block
// gains PrefixLen trainable key/value slots that all query positions
// can attend to.
type PrefixConfig struct {
	PrefixLen int
}

// DefaultPrefix returns a 8-slot prefix configuration.
func DefaultPrefix() PrefixConfig { return PrefixConfig{PrefixLen: 8} }

// Validate checks the configuration.
func (c PrefixConfig) Validate() error {
	if c.PrefixLen <= 0 {
		return fmt.Errorf("%w: prefix length %d", ErrAdapter, c.PrefixLen)
	}
	return nil
}

// PrefixAdapter is the set of per-block prefixes attached to a model
// section.
type PrefixAdapter struct {
	Config PrefixConfig

	prefixes []*model.PrefixKV
}

// InjectPrefix attaches a trainable KV prefix to every block's
// attention. Blocks must not already carry a prefix.
func InjectPrefix(rng *tensor.RNG, blocks []*model.Block, dim int, cfg PrefixConfig) (*PrefixAdapter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, b := range blocks {
		if b.Attn.Prefix != nil {
			return nil, fmt.Errorf("%w: block already has a prefix", ErrAdapter)
		}
	}
	ad := &PrefixAdapter{Config: cfg}
	for _, b := range blocks {
		p := model.NewPrefixKV(rng.Split(), cfg.PrefixLen, dim)
		b.Attn.Prefix = p
		ad.prefixes = append(ad.prefixes, p)
	}
	return ad, nil
}

// Params returns all prefix parameters.
func (a *PrefixAdapter) Params() []nn.Param {
	var ps []nn.Param
	for i, p := range a.prefixes {
		ps = append(ps, nn.Prefixed(fmt.Sprintf("prefix%d", i), p.Params())...)
	}
	return ps
}
