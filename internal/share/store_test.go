package share

import (
	"errors"
	"math"
	"sync"
	"testing"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

func testStore(t *testing.T, family model.Family) *Store {
	t.Helper()
	cfg := model.Config{
		Name: "test", Family: family,
		Vocab: 13, Dim: 8, Layers: 4, Heads: 2, FFN: 16, MaxSeq: 16,
	}
	s, err := NewStore(tensor.NewRNG(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInstanceLifecycle(t *testing.T) {
	s := testStore(t, model.FamilyOPT)
	inst, err := s.NewInstance("c1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.ActiveInstances() != 1 {
		t.Fatalf("ActiveInstances = %d", s.ActiveInstances())
	}
	if got := len(inst.blocks); got != 3 {
		t.Fatalf("instance has %d blocks, want 3", got)
	}
	if err := inst.Release(); err != nil {
		t.Fatal(err)
	}
	if s.ActiveInstances() != 0 {
		t.Fatal("instance not released")
	}
	if err := inst.Release(); !errors.Is(err, ErrReleased) {
		t.Fatalf("double release err = %v", err)
	}
}

func TestDuplicateClientIDRejected(t *testing.T) {
	s := testStore(t, model.FamilyOPT)
	if _, err := s.NewInstance("c1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewInstance("c1", 1); err == nil {
		t.Fatal("duplicate client id accepted")
	}
}

func TestCutValidation(t *testing.T) {
	s := testStore(t, model.FamilyOPT)
	if _, err := s.NewInstance("bad0", 0); err == nil {
		t.Fatal("cut 0 accepted")
	}
	if _, err := s.NewInstance("bad4", 4); err == nil {
		t.Fatal("cut == layers accepted")
	}
}

// TestInstancesShareParameters is the core §3.1 property: instances'
// blocks reference the same parameter tensors as the master.
func TestInstancesShareParameters(t *testing.T) {
	s := testStore(t, model.FamilyLlama)
	a, err := s.NewInstance("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewInstance("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	masterQ, ok := s.Master().Blocks[1].Attn.Q.(*nn.Linear)
	if !ok {
		t.Fatal("master q is not a Linear")
	}
	aq, ok := a.blocks[0].Attn.Q.(*nn.Linear)
	if !ok {
		t.Fatal("instance q is not a Linear")
	}
	bq, ok := b.blocks[0].Attn.Q.(*nn.Linear)
	if !ok {
		t.Fatal("instance q is not a Linear")
	}
	if aq.W.Value != masterQ.W.Value || bq.W.Value != masterQ.W.Value {
		t.Fatal("instances do not share the master's parameter tensors")
	}
	// Yet the structural Block objects are distinct.
	if a.blocks[0] == b.blocks[0] || a.blocks[0] == s.Master().Blocks[1] {
		t.Fatal("instances share structure objects")
	}
}

// TestAdapterIsolation: wrapping one instance's projection must not
// affect other instances or the master.
func TestAdapterIsolation(t *testing.T) {
	s := testStore(t, model.FamilyLlama)
	a, _ := s.NewInstance("a", 1)
	b, _ := s.NewInstance("b", 1)

	adA, err := a.AttachAdapter(tensor.NewRNG(2), adapter.LoRASpec(adapter.DefaultLoRA()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.blocks[0].Attn.Q.(*adapter.LoRALinear); !ok {
		t.Fatal("adapter not attached to instance a")
	}
	if _, ok := b.blocks[0].Attn.Q.(*nn.Linear); !ok {
		t.Fatal("instance b's structure was modified by a's adapter")
	}
	if _, ok := s.Master().Blocks[1].Attn.Q.(*nn.Linear); !ok {
		t.Fatal("master structure was modified")
	}

	// Different adapter kinds on different instances (heterogeneity).
	if _, err := b.AttachAdapter(tensor.NewRNG(3), adapter.PrefixSpec(adapter.DefaultPrefix())); err != nil {
		t.Fatal(err)
	}
	if a.blocks[0].Attn.Prefix != nil {
		t.Fatal("b's prefix leaked into a")
	}
	if b.blocks[0].Attn.Prefix == nil {
		t.Fatal("prefix not attached to b")
	}

	_ = adA
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondAdapterRejected(t *testing.T) {
	s := testStore(t, model.FamilyOPT)
	a, _ := s.NewInstance("a", 1)
	if _, err := a.AttachAdapter(tensor.NewRNG(4), adapter.LoRASpec(adapter.DefaultLoRA())); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AttachAdapter(tensor.NewRNG(5), adapter.LoRASpec(adapter.DefaultLoRA())); err == nil {
		t.Fatal("second adapter accepted")
	}
}

func TestAttachAfterRelease(t *testing.T) {
	s := testStore(t, model.FamilyOPT)
	a, _ := s.NewInstance("a", 1)
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AttachAdapter(tensor.NewRNG(6), adapter.LoRASpec(adapter.DefaultLoRA())); !errors.Is(err, ErrReleased) {
		t.Fatalf("attach after release err = %v", err)
	}
}

// TestSharedFineTuningLeavesBaseUntouched runs real fine-tuning through
// two instances and proves bit-level base integrity afterwards — the
// read-only contract that makes sharing safe.
func TestSharedFineTuningLeavesBaseUntouched(t *testing.T) {
	s := testStore(t, model.FamilyLlama)
	cfg := s.Config()

	for _, id := range []string{"a", "b"} {
		inst, err := s.NewInstance(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		ad, err := inst.AttachAdapter(tensor.NewRNG(7), adapter.LoRASpec(adapter.DefaultLoRA()))
		if err != nil {
			t.Fatal(err)
		}
		// Drive real forward/backward through the instance body.
		batch, seq := 1, 5
		r := tensor.NewRNG(8)
		x := tensor.NewNormal(r, 0.5, batch*seq, cfg.Dim)
		opt := nn.NewAdam(1e-2)
		for step := 0; step < 5; step++ {
			y, cache, err := inst.Body().Forward(x, batch, seq, true)
			if err != nil {
				t.Fatal(err)
			}
			dy := tensor.New(y.Shape()...)
			dy.Fill(0.1)
			if _, err := inst.Body().Backward(cache, dy); err != nil {
				t.Fatal(err)
			}
			if err := opt.Step(ad.Params()); err != nil {
				t.Fatal(err)
			}
			nn.ZeroGrads(ad.Params())
		}
		// The adapter must actually have learned something.
		var moved bool
		for _, p := range ad.Params() {
			if p.Value.MaxAbs() > 0 && p.Name[len(p.Name)-1] == 'b' {
				moved = true
			}
		}
		if !moved {
			t.Fatal("adapter B matrices never moved")
		}
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrityDetectsCorruption(t *testing.T) {
	s := testStore(t, model.FamilyOPT)
	lin, ok := s.Master().Blocks[2].Attn.V.(*nn.Linear)
	if !ok {
		t.Fatal("not a linear")
	}
	lin.W.Value.Data()[0] += 1
	if err := s.VerifyIntegrity(); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

// TestIntegrityCoversTheFinalNorm: the final norm is a base parameter
// like any other, so a changed γ — LayerNorm's for OPT, RMSNorm's for
// Llama — is a corrupted base.
func TestIntegrityCoversTheFinalNorm(t *testing.T) {
	for _, family := range []model.Family{model.FamilyOPT, model.FamilyLlama} {
		t.Run(family.String(), func(t *testing.T) {
			s := testStore(t, family)
			var gamma *tensor.Tensor
			switch n := s.Master().Norm.(type) {
			case *nn.LayerNorm:
				gamma = n.Gamma.Value
			case *nn.RMSNorm:
				gamma = n.Gamma.Value
			default:
				t.Fatalf("final norm is a %T", n)
			}
			gamma.Data()[0] += 1
			if err := s.VerifyIntegrity(); !errors.Is(err, ErrCorrupted) {
				t.Fatalf("final-norm corruption not detected: %v", err)
			}
		})
	}
}

// TestMemoryScalingIsSublinear is Fig. 5 in miniature: N instances cost
// one base copy plus N small adapter footprints.
func TestMemoryScalingIsSublinear(t *testing.T) {
	s := testStore(t, model.FamilyLlama)
	base := s.BaseParamBytes()
	var private int64
	const n = 4
	for i := 0; i < n; i++ {
		inst, err := s.NewInstance(string(rune('a'+i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.AttachAdapter(tensor.NewRNG(uint64(10+i)), adapter.LoRASpec(adapter.DefaultLoRA())); err != nil {
			t.Fatal(err)
		}
		for _, p := range inst.AdapterParams() {
			private += p.Value.Bytes() + p.Grad.Bytes() // the 𝔸 term
		}
	}
	shared := base + private
	duplicated := base * n
	// At toy scale adapters are not ≪ base, so only strict improvement
	// is asserted here; the realistic 72% ratio is asserted against the
	// full-size shapes in the memmodel package.
	if shared >= duplicated {
		t.Fatalf("sharing does not save memory: %d vs duplicated %d", shared, duplicated)
	}
	perClient := private / n
	if perClient >= base {
		t.Fatalf("per-client private footprint %d not smaller than base %d", perClient, base)
	}
}

// TestConcurrentInstanceForward runs forward passes on several
// instances concurrently; shared read-only parameters must be safe.
func TestConcurrentInstanceForward(t *testing.T) {
	s := testStore(t, model.FamilyOPT)
	cfg := s.Config()
	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		inst, err := s.NewInstance(string(rune('a'+i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(inst *Instance, seed uint64) {
			defer wg.Done()
			x := tensor.NewNormal(tensor.NewRNG(seed), 0.5, 6, cfg.Dim)
			for step := 0; step < 10; step++ {
				if _, _, err := inst.Body().Forward(x, 1, 6, false); err != nil {
					errs <- err
					return
				}
			}
		}(inst, uint64(20+i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestInstanceForwardEqualsMaster: an instance with a fresh (identity)
// adapter computes exactly what the master body computes.
func TestInstanceForwardEqualsMaster(t *testing.T) {
	s := testStore(t, model.FamilyLlama)
	cfg := s.Config()
	inst, err := s.NewInstance("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.AttachAdapter(tensor.NewRNG(30), adapter.LoRASpec(adapter.DefaultLoRA())); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewNormal(tensor.NewRNG(31), 0.5, 4, cfg.Dim)
	yInst, _, err := inst.Body().Forward(x, 1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	_, masterBody, _, err := s.Master().Split(1)
	if err != nil {
		t.Fatal(err)
	}
	yMaster, _, err := masterBody.Forward(x, 1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range yInst.Data() {
		if math.Abs(float64(yInst.Data()[i]-yMaster.Data()[i])) > 1e-6 {
			t.Fatalf("fresh instance diverges from master at %d", i)
		}
	}
}

// TestInstancesCloneOperatorsOntoTheirOwnArenas: every norm and
// projection of an instance is a struct of its own — distinct from the
// master's and from a sibling's — over the master's very parameter
// tensors, drawing from the instance's arena. Two instances trained
// through those copies leave the base's checksum unchanged, and take
// nothing from the master's arena or each other's.
func TestInstancesCloneOperatorsOntoTheirOwnArenas(t *testing.T) {
	for _, family := range []model.Family{model.FamilyOPT, model.FamilyLlama} {
		t.Run(family.String(), func(t *testing.T) {
			s := testStore(t, family)
			cfg := s.Config()
			a, err := s.NewInstance("a", 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.NewInstance("b", 1)
			if err != nil {
				t.Fatal(err)
			}
			if a.Scratch() == nil || a.Scratch() == b.Scratch() || a.Scratch() == s.Master().Scratch() {
				t.Fatal("instances do not each have an arena of their own")
			}
			for i, mb := range s.Master().Blocks[1:] {
				ab, bb := a.blocks[i], b.blocks[i]
				if ab.Scratch() != a.Scratch() || bb.Scratch() != b.Scratch() {
					t.Fatalf("block %d: clone not bound to its instance's arena", i+1)
				}
				mops, aops, bops := blockOps(mb), blockOps(ab), blockOps(bb)
				for k, mop := range mops {
					if mop == nil {
						if aops[k] != nil || bops[k] != nil {
							t.Fatalf("block %d op %d: clone holds an op the master lacks", i+1, k)
						}
						continue
					}
					if aops[k] == mop || bops[k] == mop || aops[k] == bops[k] {
						t.Fatalf("block %d op %d (%T): instances share the operator struct", i+1, k, mop)
					}
					mts, ats, bts := opTensors(t, mop), opTensors(t, aops[k]), opTensors(t, bops[k])
					for j := range mts {
						if ats[j] != mts[j] || bts[j] != mts[j] {
							t.Fatalf("block %d op %d (%T) tensor %d: not the master's", i+1, k, mop, j)
						}
					}
				}
			}

			masterGets, _ := s.Master().Scratch().Stats()
			for _, inst := range []*Instance{a, b} {
				ad, err := inst.AttachAdapter(tensor.NewRNG(7), adapter.LoRASpec(adapter.DefaultLoRA()))
				if err != nil {
					t.Fatal(err)
				}
				x := tensor.NewNormal(tensor.NewRNG(8), 0.5, 5, cfg.Dim)
				opt := nn.NewAdam(1e-2)
				for range 3 {
					y, cache, err := inst.Body().Forward(x, 1, 5, true)
					if err != nil {
						t.Fatal(err)
					}
					dy := tensor.New(y.Shape()...)
					dy.Fill(0.1)
					dx, err := inst.Body().Backward(cache, dy)
					if err != nil {
						t.Fatal(err)
					}
					inst.Scratch().Put(y, dx)
					if err := opt.Step(ad.Params()); err != nil {
						t.Fatal(err)
					}
					nn.ZeroGrads(ad.Params())
				}
				if out, _ := inst.Scratch().Outstanding(); out != 0 {
					t.Fatalf("instance %q: %d bytes still out of its arena after its steps", inst.ClientID, out)
				}
			}
			if gets, _ := s.Master().Scratch().Stats(); gets != masterGets {
				t.Fatalf("instances took %d tensors from the master's arena", gets-masterGets)
			}
			if err := s.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// blockOps lists a block's norms and projections in a fixed order; an
// absent op (an OPT block's gate) is nil.
func blockOps(b *model.Block) []nn.Op {
	return []nn.Op{b.Norm1, b.Norm2, b.Attn.Q, b.Attn.K, b.Attn.V, b.Attn.O, b.FFN.Up, b.FFN.Down, b.FFN.Gate}
}

// opTensors lists a base operator's parameter values and gradient
// buffers.
func opTensors(t *testing.T, op nn.Op) []*tensor.Tensor {
	t.Helper()
	switch o := op.(type) {
	case *nn.Linear:
		return []*tensor.Tensor{o.W.Value, o.W.Grad, o.B.Value, o.B.Grad}
	case *nn.LayerNorm:
		return []*tensor.Tensor{o.Gamma.Value, o.Gamma.Grad, o.Beta.Value, o.Beta.Grad}
	case *nn.RMSNorm:
		return []*tensor.Tensor{o.Gamma.Value, o.Gamma.Grad}
	}
	t.Fatalf("unexpected operator %T", op)
	return nil
}
