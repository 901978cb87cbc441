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
	if got := len(inst.Blocks()); got != 3 {
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
	aq, ok := a.Blocks()[0].Attn.Q.(*nn.Linear)
	if !ok {
		t.Fatal("instance q is not a Linear")
	}
	bq, ok := b.Blocks()[0].Attn.Q.(*nn.Linear)
	if !ok {
		t.Fatal("instance q is not a Linear")
	}
	if aq != masterQ || bq != masterQ {
		t.Fatal("instances do not share the master's parameter-bearing layers")
	}
	// Yet the structural Block objects are distinct.
	if a.Blocks()[0] == b.Blocks()[0] || a.Blocks()[0] == s.Master().Blocks[1] {
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
	if _, ok := a.Blocks()[0].Attn.Q.(*adapter.LoRALinear); !ok {
		t.Fatal("adapter not attached to instance a")
	}
	if _, ok := b.Blocks()[0].Attn.Q.(*nn.Linear); !ok {
		t.Fatal("instance b's structure was modified by a's adapter")
	}
	if _, ok := s.Master().Blocks[1].Attn.Q.(*nn.Linear); !ok {
		t.Fatal("master structure was modified")
	}

	// Different adapter kinds on different instances (heterogeneity).
	if _, err := b.AttachAdapter(tensor.NewRNG(3), adapter.PrefixSpec(adapter.DefaultPrefix())); err != nil {
		t.Fatal(err)
	}
	if a.Blocks()[0].Attn.Prefix != nil {
		t.Fatal("b's prefix leaked into a")
	}
	if b.Blocks()[0].Attn.Prefix == nil {
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
		private += 2 * inst.Adapter().ParamBytes() // values + gradients: the 𝔸 term
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
