package adapter

import (
	"math"
	"slices"
	"testing"

	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

func tinyModel(t *testing.T, family model.Family) *model.Transformer {
	t.Helper()
	cfg := model.Config{
		Name: "test", Family: family,
		Vocab: 13, Dim: 8, Layers: 3, Heads: 2, FFN: 16, MaxSeq: 16,
	}
	m, err := model.New(tensor.NewRNG(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randBatch(vocab, n int, seed uint64) ([]int, []int) {
	r := tensor.NewRNG(seed)
	ids := make([]int, n)
	targets := make([]int, n)
	for i := range ids {
		ids[i] = r.Intn(vocab)
		targets[i] = r.Intn(vocab)
	}
	return ids, targets
}

func TestLoRAConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  LoRAConfig
		ok   bool
	}{
		{"default", DefaultLoRA(), true},
		{"zero rank", LoRAConfig{Rank: 0, Alpha: 16, Targets: []Target{TargetQ}}, false},
		{"zero alpha", LoRAConfig{Rank: 8, Alpha: 0, Targets: []Target{TargetQ}}, false},
		{"no targets", LoRAConfig{Rank: 8, Alpha: 16}, false},
		{"bad target", LoRAConfig{Rank: 8, Alpha: 16, Targets: []Target{Target(9)}}, false},
		{"repeated target", LoRAConfig{Rank: 8, Alpha: 16, Targets: []Target{TargetQ, TargetV, TargetQ}}, false},
		{"all targets", LoRAConfig{Rank: 4, Alpha: 8, Targets: []Target{TargetQ, TargetK, TargetV, TargetO}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// TestFreshLoRAIsIdentity checks B=0 initialization: a freshly injected
// adapter must not change the model's output at all.
func TestFreshLoRAIsIdentity(t *testing.T) {
	m := tinyModel(t, model.FamilyLlama)
	ids, targets := randBatch(m.Cfg.Vocab, 8, 2)
	before, err := m.Loss(ids, targets, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InjectLoRA(tensor.NewRNG(3), m.Blocks, DefaultLoRA()); err != nil {
		t.Fatal(err)
	}
	after, err := m.Loss(ids, targets, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(before-after) > 1e-6 {
		t.Fatalf("fresh LoRA changed loss: %v -> %v", before, after)
	}
}

// TestLoRAFineTuningReducesLoss freezes the base and trains only the
// adapters: the adapter-based fine-tuning of §2.1.
func TestLoRAFineTuningReducesLoss(t *testing.T) {
	for _, family := range []model.Family{model.FamilyOPT, model.FamilyLlama} {
		t.Run(family.String(), func(t *testing.T) {
			m := tinyModel(t, family)
			m.SetFrozenBase(true)
			ad, err := InjectLoRA(tensor.NewRNG(4), m.Blocks, DefaultLoRA())
			if err != nil {
				t.Fatal(err)
			}
			params := ad.Params()
			if len(params) == 0 {
				t.Fatal("no adapter params")
			}
			ids, targets := randBatch(m.Cfg.Vocab, 12, 5)
			snapshotBase := m.Blocks[1].Attn.K.Params() // frozen: should stay empty
			if len(snapshotBase) != 0 {
				t.Fatal("frozen base exposes params")
			}

			opt := nn.NewAdam(5e-3)
			first, err := m.LossAndGrad(ids, targets, 2, 6)
			if err != nil {
				t.Fatal(err)
			}
			var lossFinal float64
			for i := 0; i < 40; i++ {
				res, err := m.LossAndGrad(ids, targets, 2, 6)
				if err != nil {
					t.Fatal(err)
				}
				lossFinal = res.Loss
				if err := opt.Step(params); err != nil {
					t.Fatal(err)
				}
				nn.ZeroGrads(params)
			}
			if lossFinal >= first.Loss {
				t.Fatalf("LoRA fine-tuning did not reduce loss: %v -> %v", first.Loss, lossFinal)
			}
		})
	}
}

// TestLoRAGradCheck verifies the LoRA backward pass numerically.
func TestLoRAGradCheck(t *testing.T) {
	rng := tensor.NewRNG(6)
	base := nn.NewLinear(rng, 4, 3, true)
	base.Frozen = true
	l := NewLoRALinear(rng, base, 4, 3, 2, 8)
	// Give B a non-zero value so gradients flow through A too.
	l.B.Value.FillNormal(rng, 0.3)
	x := tensor.NewNormal(rng, 1, 5, 4)

	forward := func() float64 {
		y, _, err := l.Apply(x, false)
		if err != nil {
			t.Fatal(err)
		}
		return y.Sum()
	}
	y, cache, err := l.Apply(x, true)
	if err != nil {
		t.Fatal(err)
	}
	dy := tensor.New(y.Shape()...)
	dy.Fill(1)
	dx, err := l.Grad(cache, dy, true)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, value, grad *tensor.Tensor) {
		t.Helper()
		const h = 1e-3
		for i := range value.Data() {
			orig := value.Data()[i]
			value.Data()[i] = orig + h
			up := forward()
			value.Data()[i] = orig - h
			down := forward()
			value.Data()[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := float64(grad.Data()[i])
			if math.Abs(numeric-analytic) > 2e-2*math.Max(1, math.Abs(numeric)) {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, analytic, numeric)
			}
		}
	}
	check("A", l.A.Value, l.A.Grad)
	check("B", l.B.Value, l.B.Grad)
	check("x", x, dx)
}

func TestDoubleInjectionRejected(t *testing.T) {
	m := tinyModel(t, model.FamilyOPT)
	if _, err := InjectLoRA(tensor.NewRNG(8), m.Blocks, DefaultLoRA()); err != nil {
		t.Fatal(err)
	}
	if _, err := InjectLoRA(tensor.NewRNG(9), m.Blocks, DefaultLoRA()); err == nil {
		t.Fatal("double LoRA injection accepted")
	}
}

func TestLoRAParamCount(t *testing.T) {
	m := tinyModel(t, model.FamilyLlama)
	cfg := DefaultLoRA()
	ad, err := InjectLoRA(tensor.NewRNG(10), m.Blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 blocks × 2 targets × (dim*r + r*dim) = 3*2*2*8*8.
	want := int64(3 * 2 * 2 * 8 * cfg.Rank)
	if got := paramCount(ad); got != want {
		t.Fatalf("instantiated params = %d, want %d", got, want)
	}
	// Analytic spec agrees.
	spec := LoRASpec(cfg)
	if got := spec.ParamsPerBlock(8) * 3; got != want {
		t.Fatalf("spec ParamsPerBlock*3 = %d, want %d", got, want)
	}
}

// TestPrefixFineTuning trains a prefix adapter and checks loss falls.
func TestPrefixFineTuning(t *testing.T) {
	m := tinyModel(t, model.FamilyLlama)
	m.SetFrozenBase(true)
	ad, err := InjectPrefix(tensor.NewRNG(11), m.Blocks, m.Cfg.Dim, PrefixConfig{PrefixLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	params := ad.Params()
	ids, targets := randBatch(m.Cfg.Vocab, 12, 12)
	opt := nn.NewAdam(1e-2)
	first, err := m.LossAndGrad(ids, targets, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 50; i++ {
		res, err := m.LossAndGrad(ids, targets, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		last = res.Loss
		if err := opt.Step(params); err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
	}
	if last >= first.Loss {
		t.Fatalf("prefix tuning did not reduce loss: %v -> %v", first.Loss, last)
	}
}

// TestPrefixGradCheck numerically verifies gradients flowing into the
// prefix K/V parameters through the full attention backward.
func TestPrefixGradCheck(t *testing.T) {
	m := tinyModel(t, model.FamilyOPT)
	m.SetFrozenBase(true)
	ad, err := InjectPrefix(tensor.NewRNG(13), m.Blocks, m.Cfg.Dim, PrefixConfig{PrefixLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := randBatch(m.Cfg.Vocab, 6, 14)
	forward := func() float64 {
		loss, err := m.Loss(ids, targets, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	if _, err := m.LossAndGrad(ids, targets, 1, 6); err != nil {
		t.Fatal(err)
	}
	// Check a handful of entries in block 1's prefix K and V.
	for _, p := range []nn.Param{m.Blocks[1].Attn.Prefix.K, m.Blocks[1].Attn.Prefix.V} {
		const h = 1e-2
		for i := 0; i < p.Value.Len(); i += 5 {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + h
			up := forward()
			p.Value.Data()[i] = orig - h
			down := forward()
			p.Value.Data()[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := float64(p.Grad.Data()[i])
			diff := math.Abs(numeric - analytic)
			if diff > 0.1*math.Max(0.05, math.Abs(numeric)) {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
	_ = ad
}

func TestDoublePrefixRejected(t *testing.T) {
	m := tinyModel(t, model.FamilyOPT)
	if _, err := InjectPrefix(tensor.NewRNG(15), m.Blocks, m.Cfg.Dim, DefaultPrefix()); err != nil {
		t.Fatal(err)
	}
	if _, err := InjectPrefix(tensor.NewRNG(16), m.Blocks, m.Cfg.Dim, DefaultPrefix()); err == nil {
		t.Fatal("double prefix injection accepted")
	}
}

func TestSpecValidateAndInject(t *testing.T) {
	m := tinyModel(t, model.FamilyLlama)
	specs := []Spec{
		LoRASpec(DefaultLoRA()),
		PrefixSpec(DefaultPrefix()),
	}
	for _, s := range specs {
		t.Run(s.Kind.String(), func(t *testing.T) {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			mm := tinyModel(t, model.FamilyLlama)
			ad, err := s.Inject(tensor.NewRNG(21), mm.Blocks, mm.Cfg.Dim)
			if err != nil {
				t.Fatal(err)
			}
			got := paramCount(ad)
			if got <= 0 {
				t.Fatal("no adapter params")
			}
			// Analytic per-block count × blocks == instantiated count.
			if want := s.ParamsPerBlock(mm.Cfg.Dim) * int64(len(mm.Blocks)); want != got {
				t.Fatalf("analytic %d != instantiated %d", want, got)
			}
		})
	}
	_ = m

	// Kind 3 is the retired bottleneck kind a peer may still name.
	for _, bad := range []Spec{{Kind: Kind(3)}, {Kind: Kind(42)}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("unknown %v validated", bad.Kind)
		}
		if _, err := bad.Inject(tensor.NewRNG(22), m.Blocks, m.Cfg.Dim); err == nil {
			t.Fatalf("unknown %v injected", bad.Kind)
		}
		if bad.ParamsPerBlock(8) != 0 {
			t.Fatalf("unknown %v has params", bad.Kind)
		}
	}
}

// paramCount returns the adapter's instantiated scalar count.
func paramCount(ad Adapter) int64 {
	var n int64
	for _, p := range ad.Params() {
		n += int64(p.Value.Len())
	}
	return n
}

func TestKindAndTargetStrings(t *testing.T) {
	if KindLoRA.String() != "lora" || KindPrefix.String() != "prefix" || Kind(3).String() != "kind(3)" {
		t.Fatal("kind strings")
	}
	if TargetQ.String() != "q" || TargetO.String() != "o" {
		t.Fatal("target strings")
	}
	if Kind(0).String() == "" || Target(0).String() == "" {
		t.Fatal("unknown strings empty")
	}
}

// TestHeterogeneousAdapters exercises the paper's claim that different
// clients can use different fine-tuning configurations on the same base
// parameters: three model instances sharing nothing here (instance
// sharing is tested in the share package) — LoRA on q,v, a rank-4 LoRA
// on every projection and a prefix — all reducing loss.
func TestHeterogeneousAdapters(t *testing.T) {
	specs := []Spec{
		LoRASpec(DefaultLoRA()),
		LoRASpec(LoRAConfig{Rank: 4, Alpha: 8, Targets: []Target{TargetQ, TargetK, TargetV, TargetO}}),
		PrefixSpec(PrefixConfig{PrefixLen: 4}),
	}
	for _, s := range specs {
		m := tinyModel(t, model.FamilyOPT)
		m.SetFrozenBase(true)
		ad, err := s.Inject(tensor.NewRNG(23), m.Blocks, m.Cfg.Dim)
		if err != nil {
			t.Fatalf("%v: %v", s.Kind, err)
		}
		ids, targets := randBatch(m.Cfg.Vocab, 12, 24)
		opt := nn.NewAdam(5e-3)
		first, err := m.LossAndGrad(ids, targets, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		var last float64
		for i := 0; i < 30; i++ {
			res, err := m.LossAndGrad(ids, targets, 2, 6)
			if err != nil {
				t.Fatal(err)
			}
			last = res.Loss
			if err := opt.Step(ad.Params()); err != nil {
				t.Fatal(err)
			}
			nn.ZeroGrads(ad.Params())
		}
		if last >= first.Loss {
			t.Fatalf("%v adapter did not reduce loss: %v -> %v", s.Kind, first.Loss, last)
		}
	}
}

// TestLoRATemporariesRoundTripTheArena pins the arena contract of the
// low-rank path: every temporary of a forward+backward comes from the
// attached Scratch and is back on it afterwards, the results are the
// bits an arena-less layer computes, and Grad consumes the cache only
// when there is an arena to have taken xa back.
func TestLoRATemporariesRoundTripTheArena(t *testing.T) {
	build := func(sc *tensor.Scratch) *LoRALinear {
		rng := tensor.NewRNG(6)
		base := nn.NewLinear(rng, 6, 5, true)
		base.Frozen = true
		l := NewLoRALinear(rng, base, 6, 5, 2, 8)
		l.B.Value.FillNormal(rng, 0.3)
		l.SetScratch(sc)
		return l
	}
	x := tensor.NewNormal(tensor.NewRNG(7), 1, 4, 6)
	dy := tensor.NewNormal(tensor.NewRNG(8), 1, 4, 5)
	step := func(l *LoRALinear) (y, dx *tensor.Tensor, cache any) {
		t.Helper()
		y, cache, err := l.Apply(x, true)
		if err != nil {
			t.Fatal(err)
		}
		if dx, err = l.Grad(cache, dy, true); err != nil {
			t.Fatal(err)
		}
		return y, dx, cache
	}

	sc := tensor.NewScratch()
	pooled, plain := build(sc), build(nil)
	step(pooled)
	gets0, hits0 := sc.Stats()
	retained := sc.RetainedBytes()
	if gets0 != 5 || retained == 0 {
		t.Fatalf("first step: %d arena gets (want xa, delta, scaled, dxa, dxLora = 5), %d bytes retained", gets0, retained)
	}
	y, dx, cache := step(pooled)
	gets, hits := sc.Stats()
	if gets-gets0 != 5 || hits-hits0 != 5 {
		t.Fatalf("second step: %d gets, %d hits; want every one of 5 temporaries reused", gets-gets0, hits-hits0)
	}
	if got := sc.RetainedBytes(); got != retained {
		t.Fatalf("arena retains %d bytes after the second step, %d after the first: a temporary leaked", got, retained)
	}
	if _, _, err := pooled.Apply(x, false); err != nil {
		t.Fatal(err)
	}
	if got := sc.RetainedBytes(); got != retained {
		t.Fatalf("no-grad forward left the arena at %d bytes, want %d", got, retained)
	}

	step(plain)
	wantY, wantDx, plainCache := step(plain)
	if !bitEqual(y, wantY) || !bitEqual(dx, wantDx) ||
		!bitEqual(pooled.A.Grad, plain.A.Grad) || !bitEqual(pooled.B.Grad, plain.B.Grad) {
		t.Fatal("arena-backed LoRA differs from the arena-less layer")
	}

	if _, err := pooled.Grad(cache, dy, true); err == nil {
		t.Fatal("second Grad over a consumed cache succeeded; its xa is back on the arena")
	}
	again, err := plain.Grad(plainCache, dy, true)
	if err != nil {
		t.Fatalf("second Grad without an arena: %v", err)
	}
	if !bitEqual(again, wantDx) {
		t.Fatal("second Grad without an arena returned a different dx")
	}
}

// TestLowestBlockWithoutInputGradient: with the embeddings and
// positions frozen, the input section asks its lowest block for no
// input gradient, so that block skips Norm1's backward, the Q/K/V input
// products of every projection that does not train, the LoRA dx
// products and the last residual add. The adapter gradients and Adam's
// updates must be the bits of the same model with trainable embeddings,
// which computes that gradient, and both must hand every arena tensor
// back.
func TestLowestBlockWithoutInputGradient(t *testing.T) {
	specs := []struct {
		name string
		spec Spec
	}{
		{"lora-qv", LoRASpec(DefaultLoRA())},
		{"lora-qkvo", LoRASpec(LoRAConfig{Rank: 4, Alpha: 8, Targets: []Target{TargetQ, TargetK, TargetV, TargetO}})},
		{"prefix", PrefixSpec(PrefixConfig{PrefixLen: 3})},
	}
	for _, family := range []model.Family{model.FamilyOPT, model.FamilyLlama} {
		for _, s := range specs {
			run := func(embedTrains bool) [][]float32 {
				m := tinyModel(t, family)
				m.SetFrozenBase(true)
				m.Embed.Frozen = !embedTrains
				ad, err := s.spec.Inject(tensor.NewRNG(31), m.Blocks, m.Cfg.Dim)
				if err != nil {
					t.Fatal(err)
				}
				params, opt := ad.Params(), nn.NewAdam(1e-2)
				var bits [][]float32
				for step := range 3 {
					ids, targets := randBatch(m.Cfg.Vocab, 12, uint64(40+step))
					if _, err := m.LossAndGrad(ids, targets, 2, 6); err != nil {
						t.Fatal(err)
					}
					if out, _ := m.Scratch().Outstanding(); out != 0 {
						t.Fatalf("%s/%s embeddings training=%v: %d arena bytes outstanding after a step", family, s.name, embedTrains, out)
					}
					for _, p := range params {
						bits = append(bits, slices.Clone(p.Grad.Data()))
					}
					if err := opt.Step(params); err != nil {
						t.Fatal(err)
					}
					for _, p := range params {
						bits = append(bits, slices.Clone(p.Value.Data()))
					}
					nn.ZeroGrads(params)
				}
				return bits
			}
			without, with := run(false), run(true)
			for i := range with {
				for j, w := range with[i] {
					if g := without[i][j]; math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("%s/%s: tensor %d element %d is %g without block 0's input gradient, %g with it",
							family, s.name, i, j, g, w)
					}
				}
			}
		}
	}
}
