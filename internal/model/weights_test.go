package model

import (
	"math"
	"testing"

	"menos/internal/nn"

	"menos/internal/tensor"
)

func TestBaseParamsCoverEverything(t *testing.T) {
	for _, family := range []Family{FamilyOPT, FamilyLlama} {
		t.Run(family.String(), func(t *testing.T) {
			cfg := tinyCfg(family)
			m, err := New(tensor.NewRNG(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := m.BaseParams()
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			names := make(map[string]bool, len(ps))
			for _, p := range ps {
				total += int64(p.Value.Len())
				if names[p.Name] {
					t.Fatalf("duplicate parameter name %q", p.Name)
				}
				names[p.Name] = true
			}
			if want := cfg.TotalParams(); total != want {
				t.Fatalf("BaseParams covers %d scalars, model has %d", total, want)
			}
		})
	}
}

func TestBaseParamsIndependentOfFrozenState(t *testing.T) {
	cfg := tinyCfg(FamilyOPT)
	m, err := New(tensor.NewRNG(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFrozenBase(true)
	ps, err := m.BaseParams()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("frozen model exported no base params")
	}
}

// TestWeightDistribution is the model-owner workflow: export the base
// weights, build a structurally identical model from a different seed,
// import, and verify the models compute identically — seedless model
// distribution.
func TestWeightDistribution(t *testing.T) {
	cfg := tinyCfg(FamilyLlama)
	owner, err := New(tensor.NewRNG(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ownerParams, err := owner.BaseParams()
	if err != nil {
		t.Fatal(err)
	}

	// The "downloaded" model starts from unrelated random weights.
	replica, err := New(tensor.NewRNG(999), cfg)
	if err != nil {
		t.Fatal(err)
	}
	replicaParams, err := replica.BaseParams()
	if err != nil {
		t.Fatal(err)
	}
	if len(ownerParams) != len(replicaParams) {
		t.Fatalf("param counts differ: %d vs %d", len(ownerParams), len(replicaParams))
	}
	// Transfer by name (what checkpoint.Load does; done inline here to
	// keep the test self-contained in this package).
	byName := make(map[string]*tensor.Tensor, len(replicaParams))
	for _, p := range replicaParams {
		byName[p.Name] = p.Value
	}
	for _, p := range ownerParams {
		dst, ok := byName[p.Name]
		if !ok {
			t.Fatalf("replica missing %q", p.Name)
		}
		if err := dst.CopyFrom(p.Value); err != nil {
			t.Fatalf("%q: %v", p.Name, err)
		}
	}

	ids := []int{1, 2, 3, 4, 5, 6}
	targets := []int{2, 3, 4, 5, 6, 7}
	lossOwner, err := owner.Loss(ids, targets, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	lossReplica, err := replica.Loss(ids, targets, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lossOwner-lossReplica) > 1e-7 {
		t.Fatalf("replica loss %v != owner loss %v", lossReplica, lossOwner)
	}
}

func TestBaseParamsRejectsWrappedModel(t *testing.T) {
	cfg := tinyCfg(FamilyOPT)
	m, err := New(tensor.NewRNG(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a wrapped projection with an anonymous Op.
	m.Blocks[0].Attn.Q = wrapperOp{m.Blocks[0].Attn.Q}
	if _, err := m.BaseParams(); err == nil {
		t.Fatal("wrapped model exported")
	}
}

// wrapperOp is a minimal Op decorator for the rejection test.
type wrapperOp struct{ inner nn.Op }

func (w wrapperOp) Apply(x *tensor.Tensor, g bool) (*tensor.Tensor, any, error) { return x, nil, nil }
func (w wrapperOp) Grad(c any, dy *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	return dy, nil
}
func (w wrapperOp) Trains() bool       { return false }
func (w wrapperOp) Params() []nn.Param { return nil }
func (w wrapperOp) SetFrozen(bool)     {}
