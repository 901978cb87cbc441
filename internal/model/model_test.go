package model

import (
	"errors"
	"math"
	"slices"
	"testing"

	"menos/internal/nn"
	"menos/internal/tensor"
)

func tinyCfg(f Family) Config {
	c := Config{
		Name:   "test",
		Family: f,
		Vocab:  17,
		Dim:    8,
		Layers: 3,
		Heads:  2,
		FFN:    16,
		MaxSeq: 16,
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid opt", func(c *Config) {}, true},
		{"bad family", func(c *Config) { c.Family = 0 }, false},
		{"zero vocab", func(c *Config) { c.Vocab = 0 }, false},
		{"zero dim", func(c *Config) { c.Dim = 0 }, false},
		{"one layer", func(c *Config) { c.Layers = 1 }, false},
		{"indivisible heads", func(c *Config) { c.Heads = 3 }, false},
		{"zero ffn", func(c *Config) { c.FFN = 0 }, false},
		{"zero maxseq", func(c *Config) { c.MaxSeq = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := tinyCfg(FamilyOPT)
			tt.mutate(&c)
			err := c.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
			if err != nil && !errors.Is(err, ErrConfig) {
				t.Fatalf("error %v is not ErrConfig", err)
			}
		})
	}
}

func TestRopeRequiresEvenHeadDim(t *testing.T) {
	c := tinyCfg(FamilyLlama)
	c.Dim = 6
	c.Heads = 2 // head dim 3: odd
	if err := c.Validate(); err == nil {
		t.Fatal("odd head dim accepted for llama")
	}
}

func TestParamCountFormulas(t *testing.T) {
	// Llama 2-7B is known to have ~6.74B parameters.
	p := Llama2_7B().TotalParams()
	if p < 6_600_000_000 || p > 6_900_000_000 {
		t.Fatalf("llama2-7b params = %d, want ~6.74B", p)
	}
	// OPT-1.3B has ~1.3B parameters.
	p = OPT1_3B().TotalParams()
	if p < 1_200_000_000 || p > 1_450_000_000 {
		t.Fatalf("opt-1.3b params = %d, want ~1.3B", p)
	}
}

func TestTinyParamCountMatchesInstance(t *testing.T) {
	// The analytic formula must agree with the actually instantiated
	// model, for both families.
	for _, cfg := range []Config{tinyCfg(FamilyOPT), tinyCfg(FamilyLlama)} {
		t.Run(cfg.Family.String(), func(t *testing.T) {
			rng := tensor.NewRNG(1)
			m, err := New(rng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SetFrozenBase(false)
			var got int64
			for _, p := range m.Params() {
				got += int64(p.Value.Len())
			}
			if want := cfg.TotalParams(); got != want {
				t.Fatalf("instantiated params = %d, analytic = %d", got, want)
			}
		})
	}
}

func TestConfigByName(t *testing.T) {
	c, err := ConfigByName("llama2-7b")
	if err != nil || c.Family != FamilyLlama {
		t.Fatalf("ConfigByName: %v, %v", c, err)
	}
	if _, err := ConfigByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestFamilyString(t *testing.T) {
	if FamilyOPT.String() != "opt" || FamilyLlama.String() != "llama" {
		t.Fatal("family strings")
	}
	if Family(99).String() == "" {
		t.Fatal("unknown family string empty")
	}
}

func forwardLoss(t *testing.T, m *Transformer, ids, targets []int, batch, seq int) float64 {
	t.Helper()
	loss, err := m.Loss(ids, targets, batch, seq)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

// TestEndToEndGradCheck verifies the full-model backward pass (both
// families) against numerical gradients on a selection of parameters.
func TestEndToEndGradCheck(t *testing.T) {
	for _, family := range []Family{FamilyOPT, FamilyLlama} {
		t.Run(family.String(), func(t *testing.T) {
			cfg := tinyCfg(family)
			rng := tensor.NewRNG(42)
			m, err := New(rng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, seq := 2, 5
			ids := make([]int, batch*seq)
			targets := make([]int, batch*seq)
			r := tensor.NewRNG(7)
			for i := range ids {
				ids[i] = r.Intn(cfg.Vocab)
				targets[i] = r.Intn(cfg.Vocab)
			}

			if _, err := m.LossAndGrad(ids, targets, batch, seq); err != nil {
				t.Fatal(err)
			}

			// Check gradients on a few representative parameters:
			// a middle block's attention q weight, an FFN weight, a norm
			// gain, and the embedding.
			check := func(name string, p nn.Param, samples int) {
				t.Helper()
				const h = 1e-2
				data := p.Value.Data()
				stride := len(data) / samples
				if stride == 0 {
					stride = 1
				}
				for i := 0; i < len(data); i += stride {
					orig := data[i]
					data[i] = orig + h
					up := forwardLoss(t, m, ids, targets, batch, seq)
					data[i] = orig - h
					down := forwardLoss(t, m, ids, targets, batch, seq)
					data[i] = orig
					numeric := (up - down) / (2 * h)
					analytic := float64(p.Grad.Data()[i])
					diff := math.Abs(numeric - analytic)
					scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
					if diff/scale > 0.15 {
						t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, analytic, numeric)
					}
				}
			}

			for _, p := range m.Params() {
				switch p.Name {
				case "block1.attn.q.w", "block1.ffn.up.w", "block2.norm1.gamma", "lmhead.w":
					check(p.Name, p, 6)
				}
			}
		})
	}
}

// TestSplitMatchesFullForward verifies that running the three sections
// (input -> body -> output) produces identical results to any other
// composition — i.e. splitting is purely topological.
func TestSplitMatchesFullForward(t *testing.T) {
	for _, family := range []Family{FamilyOPT, FamilyLlama} {
		t.Run(family.String(), func(t *testing.T) {
			cfg := tinyCfg(family)
			rng := tensor.NewRNG(3)
			m, err := New(rng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, seq := 2, 4
			ids := make([]int, batch*seq)
			for i := range ids {
				ids[i] = i % cfg.Vocab
			}
			targets := make([]int, batch*seq)
			for i := range targets {
				targets[i] = (i + 1) % cfg.Vocab
			}

			lossRef, err := m.Loss(ids, targets, batch, seq)
			if err != nil {
				t.Fatal(err)
			}

			// Same computation via an explicit deeper cut.
			input, body, output, err := m.Split(2)
			if err != nil {
				t.Fatal(err)
			}
			xc, _, err := input.Forward(ids, batch, seq, false)
			if err != nil {
				t.Fatal(err)
			}
			xs, _, err := body.Forward(xc, batch, seq, false)
			if err != nil {
				t.Fatal(err)
			}
			logits, _, err := output.Forward(xs, false)
			if err != nil {
				t.Fatal(err)
			}
			loss2, _, err := nn.CrossEntropy(logits, targets)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lossRef-loss2) > 1e-5 {
				t.Fatalf("cut=1 loss %v != cut=2 loss %v", lossRef, loss2)
			}
		})
	}
}

func TestSplitCutValidation(t *testing.T) {
	rng := tensor.NewRNG(4)
	m, err := New(rng, tinyCfg(FamilyOPT))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Split(0); err == nil {
		t.Fatal("cut 0 accepted")
	}
	if _, _, _, err := m.Split(3); err == nil {
		t.Fatal("cut == layers accepted")
	}
	if _, _, _, err := m.Split(2); err != nil {
		t.Fatalf("valid cut rejected: %v", err)
	}
}

// TestNoGradForwardMatchesGradForward verifies the no-grad forward pass
// (Menos' first forward) computes the same activations as the caching
// forward.
func TestNoGradForwardMatchesGradForward(t *testing.T) {
	cfg := tinyCfg(FamilyLlama)
	rng := tensor.NewRNG(5)
	m, err := New(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _, err := m.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	batch, seq := 1, 6
	x := tensor.NewNormal(tensor.NewRNG(6), 0.5, batch*seq, cfg.Dim)

	y1, c1, err := body.Forward(x, batch, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != nil {
		t.Fatal("no-grad forward produced a cache")
	}
	y2, c2, err := body.Forward(x, batch, seq, true)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == nil || c2.Bytes() == 0 {
		t.Fatal("grad forward produced no cache")
	}
	for i := range y1.Data() {
		if math.Abs(float64(y1.Data()[i]-y2.Data()[i])) > 1e-6 {
			t.Fatalf("no-grad and grad forwards differ at %d", i)
		}
	}
}

// TestReforwardDeterminism verifies the re-forward of Fig. 3(d): running
// the forward twice from the same x_c yields identical activations and
// hence identical gradients.
func TestReforwardDeterminism(t *testing.T) {
	cfg := tinyCfg(FamilyOPT)
	rng := tensor.NewRNG(8)
	m, err := New(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _, err := m.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	batch, seq := 2, 3
	x := tensor.NewNormal(tensor.NewRNG(9), 0.5, batch*seq, cfg.Dim)
	dy := tensor.NewNormal(tensor.NewRNG(10), 0.5, batch*seq, cfg.Dim)

	_, cacheA, err := body.Forward(x, batch, seq, true)
	if err != nil {
		t.Fatal(err)
	}
	gsA, err := body.Backward(cacheA, dy.Clone())
	if err != nil {
		t.Fatal(err)
	}

	// Re-forward from the same x (cache released in between).
	_, cacheB, err := body.Forward(x, batch, seq, true)
	if err != nil {
		t.Fatal(err)
	}
	gsB, err := body.Backward(cacheB, dy.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range gsA.Data() {
		if gsA.Data()[i] != gsB.Data()[i] {
			t.Fatalf("re-forward produced different gradient at %d", i)
		}
	}
}

func TestFrozenModelHasNoParams(t *testing.T) {
	rng := tensor.NewRNG(11)
	m, err := New(rng, tinyCfg(FamilyLlama))
	if err != nil {
		t.Fatal(err)
	}
	m.SetFrozenBase(true)
	if n := len(m.Params()); n != 0 {
		t.Fatalf("frozen model exposes %d params", n)
	}
	m.SetFrozenBase(false)
	if n := len(m.Params()); n == 0 {
		t.Fatal("unfrozen model exposes no params")
	}
}

// TestTrainingReducesLoss fine-tunes the full tiny model for a few
// steps and checks the loss goes down — the most basic sanity check
// that forward+backward+optimizer interact correctly.
func TestTrainingReducesLoss(t *testing.T) {
	for _, family := range []Family{FamilyOPT, FamilyLlama} {
		t.Run(family.String(), func(t *testing.T) {
			cfg := tinyCfg(family)
			rng := tensor.NewRNG(12)
			m, err := New(rng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, seq := 2, 6
			r := tensor.NewRNG(13)
			ids := make([]int, batch*seq)
			targets := make([]int, batch*seq)
			for i := range ids {
				ids[i] = r.Intn(cfg.Vocab)
				targets[i] = r.Intn(cfg.Vocab)
			}
			params := m.Params()
			opt := nn.NewAdam(3e-3)
			first, err := m.LossAndGrad(ids, targets, batch, seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := opt.Step(params); err != nil {
				t.Fatal(err)
			}
			nn.ZeroGrads(params)
			var last StepResult
			for i := 0; i < 30; i++ {
				last, err = m.LossAndGrad(ids, targets, batch, seq)
				if err != nil {
					t.Fatal(err)
				}
				if err := opt.Step(params); err != nil {
					t.Fatal(err)
				}
				nn.ZeroGrads(params)
			}
			if last.Loss >= first.Loss {
				t.Fatalf("loss did not decrease: %v -> %v", first.Loss, last.Loss)
			}
			if last.ActivationByte <= 0 {
				t.Fatal("activation bytes not accounted")
			}
		})
	}
}

func TestRopeOrthogonality(t *testing.T) {
	rt := newRopeTable(10, 8)
	rng := tensor.NewRNG(14)
	v := make([]float32, 8)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	orig := append([]float32(nil), v...)
	// Rotation preserves norm.
	var normBefore float64
	for _, x := range v {
		normBefore += float64(x) * float64(x)
	}
	rt.apply(v, 7, false)
	var normAfter float64
	for _, x := range v {
		normAfter += float64(x) * float64(x)
	}
	if math.Abs(normBefore-normAfter) > 1e-4 {
		t.Fatalf("rope changed norm: %v -> %v", normBefore, normAfter)
	}
	// Inverse undoes it.
	rt.apply(v, 7, true)
	for i := range v {
		if math.Abs(float64(v[i]-orig[i])) > 1e-5 {
			t.Fatalf("rope inverse mismatch at %d", i)
		}
	}
	// Position 0 is the identity.
	rt.apply(v, 0, false)
	for i := range v {
		if math.Abs(float64(v[i]-orig[i])) > 1e-5 {
			t.Fatalf("rope at position 0 not identity at %d", i)
		}
	}
}

// TestCausality verifies that a future token cannot influence an
// earlier position's body output.
func TestCausality(t *testing.T) {
	cfg := tinyCfg(FamilyLlama)
	rng := tensor.NewRNG(15)
	m, err := New(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	input, body, _, err := m.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	seq := 6
	ids := []int{1, 2, 3, 4, 5, 6}
	x1, _, err := input.Forward(ids, 1, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	y1, _, err := body.Forward(x1, 1, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	// Change the last token; earlier outputs must not move.
	ids2 := []int{1, 2, 3, 4, 5, 16}
	x2, _, err := input.Forward(ids2, 1, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	y2, _, err := body.Forward(x2, 1, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < seq-1; t2++ {
		for c := 0; c < cfg.Dim; c++ {
			if y1.At(t2, c) != y2.At(t2, c) {
				t.Fatalf("position %d changed when future token changed", t2)
			}
		}
	}
}

func TestBodyBackwardCacheMismatch(t *testing.T) {
	cfg := tinyCfg(FamilyOPT)
	m, err := New(tensor.NewRNG(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _, err := m.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := body.Backward(nil, tensor.New(1, cfg.Dim)); err == nil {
		t.Fatal("nil cache accepted")
	}
	if _, err := body.Backward(&BodyCache{}, tensor.New(1, cfg.Dim)); err == nil {
		t.Fatal("empty cache accepted")
	}
}

// TestSectionsAreTheFullModelsParams: a NewSections model at cut holds
// the embeddings, blocks [0, cut), the final norm and the LM head and
// nothing else, each parameter bit-equal to the same-named one of New
// from the same seed, and names the body's parameters it skips with
// their shapes. A bad cut is refused before anything is drawn, and the
// sections do not split off a body they do not hold.
func TestSectionsAreTheFullModelsParams(t *testing.T) {
	for _, cfg := range []Config{OPTTiny(), LlamaTiny()} {
		full, err := New(tensor.NewRNG(11), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fullParams, err := full.BaseParams()
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]*tensor.Tensor, len(fullParams))
		for _, p := range fullParams {
			byName[p.Name] = p.Value
		}
		for _, cut := range []int{1, cfg.Layers - 1} {
			m, err := NewSections(tensor.NewRNG(11), cfg, cut)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Blocks) != cut {
				t.Fatalf("%s cut %d: holds %d blocks", cfg.Name, cut, len(m.Blocks))
			}
			params, err := m.BaseParams()
			if err != nil {
				t.Fatal(err)
			}
			var count int64
			for _, p := range params {
				want, ok := byName[p.Name]
				if !ok {
					t.Fatalf("%s cut %d: %s is not a parameter of the full model", cfg.Name, cut, p.Name)
				}
				for i, v := range p.Value.Data() {
					if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
						t.Fatalf("%s cut %d: %s[%d] = %v, full model has %v", cfg.Name, cut, p.Name, i, v, want.Data()[i])
					}
				}
				count += int64(p.Value.Len())
			}
			if want := cfg.EmbeddingParams() + int64(cut)*cfg.BlockParams() + cfg.HeadParams(); count != want {
				t.Errorf("%s cut %d: %d base parameters, want %d", cfg.Name, cut, count, want)
			}

			absent, err := m.AbsentBaseParams()
			if err != nil {
				t.Fatal(err)
			}
			if len(params)+len(absent) != len(fullParams) {
				t.Fatalf("%s cut %d: %d held + %d absent records, full model has %d",
					cfg.Name, cut, len(params), len(absent), len(fullParams))
			}
			for _, a := range absent {
				want, ok := byName[a.Name]
				if !ok || !slices.Equal(a.Shape, want.Shape()) {
					t.Fatalf("%s cut %d: absent %s %v does not match the full model", cfg.Name, cut, a.Name, a.Shape)
				}
			}
			if _, _, _, err := m.Split(cut); !errors.Is(err, ErrConfig) {
				t.Errorf("%s cut %d: Split of a sections model: err = %v, want ErrConfig", cfg.Name, cut, err)
			}
		}
		for _, cut := range []int{0, cfg.Layers} {
			if _, err := NewSections(tensor.NewRNG(11), cfg, cut); !errors.Is(err, ErrConfig) {
				t.Errorf("%s cut %d: err = %v, want ErrConfig", cfg.Name, cut, err)
			}
		}
	}
}
