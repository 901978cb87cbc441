package adapter

import (
	"fmt"

	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

// Adapter is the common handle over an injected fine-tuning adapter:
// it owns the trainable parameters φ. It is never detached — the blocks
// it was injected into belong to one owner and are dropped with it.
type Adapter interface {
	Params() []nn.Param
}

var (
	_ Adapter = (*LoRAAdapter)(nil)
	_ Adapter = (*PrefixAdapter)(nil)
)

// Kind enumerates the supported adapter families: the two the paper
// fine-tunes with.
type Kind int

// Adapter kinds. Kind 3 is retired: the wire still reserves its slot,
// and Validate refuses it as an unknown kind.
const (
	KindLoRA Kind = iota + 1
	KindPrefix
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindLoRA:
		return "lora"
	case KindPrefix:
		return "prefix"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec is a serializable adapter description: the fine-tuning
// configuration a client reports to the server in its Hello (§3.3).
// Exactly the fields for the chosen Kind are meaningful.
type Spec struct {
	Kind Kind

	// LoRA.
	Rank    int
	Alpha   float64
	Targets []Target

	// Prefix-tuning.
	PrefixLen int
}

// LoRASpec builds a Spec from a LoRAConfig.
func LoRASpec(cfg LoRAConfig) Spec {
	return Spec{Kind: KindLoRA, Rank: cfg.Rank, Alpha: cfg.Alpha, Targets: cfg.Targets}
}

// PrefixSpec builds a Spec from a PrefixConfig.
func PrefixSpec(cfg PrefixConfig) Spec {
	return Spec{Kind: KindPrefix, PrefixLen: cfg.PrefixLen}
}

// Validate checks the spec for the declared kind.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindLoRA:
		return LoRAConfig{Rank: s.Rank, Alpha: s.Alpha, Targets: s.Targets}.Validate()
	case KindPrefix:
		return PrefixConfig{PrefixLen: s.PrefixLen}.Validate()
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrAdapter, int(s.Kind))
	}
}

// Inject attaches the specified adapter to the given blocks of a model
// with hidden size dim and returns its handle.
func (s Spec) Inject(rng *tensor.RNG, blocks []*model.Block, dim int) (Adapter, error) {
	switch s.Kind {
	case KindLoRA:
		return InjectLoRA(rng, blocks, LoRAConfig{Rank: s.Rank, Alpha: s.Alpha, Targets: s.Targets})
	case KindPrefix:
		return InjectPrefix(rng, blocks, dim, PrefixConfig{PrefixLen: s.PrefixLen})
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrAdapter, int(s.Kind))
	}
}

// ParamsPerBlock returns the adapter scalar count contributed to one
// transformer block of hidden size dim: the one implementation of 𝔸,
// which the analytic memory model and the server's admission price
// from the spec before anything is instantiated.
func (s Spec) ParamsPerBlock(dim int) int64 {
	d := int64(dim)
	switch s.Kind {
	case KindLoRA:
		// Each target projection is d×d: A (d×r) + B (r×d).
		return int64(len(s.Targets)) * 2 * d * int64(s.Rank)
	case KindPrefix:
		// K and V prefixes, each (P, d).
		return 2 * int64(s.PrefixLen) * d
	default:
		return 0
	}
}
