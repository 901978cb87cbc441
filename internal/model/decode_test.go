package model_test

import (
	"math"
	"testing"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/tensor"
)

// TestDecodeIsFullForwardBitwise is the decode pin: every logit of
// every position decoded through the section decode path a split
// deployment runs (InputSection.DecodeStep, BodySection.DecodeStep,
// OutputSection.Forward) equals, by Float32bits, the last row of a
// no-grad full forward over the tokens up to that position. Both tiny
// families, plain, with LoRA on all four projections (B nonzero, so the
// low-rank path moves bits) and with a prefix, at one worker and four.
func TestDecodeIsFullForwardBitwise(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	adapters := map[string]func(t *testing.T, m *model.Transformer){
		"plain": func(*testing.T, *model.Transformer) {},
		"lora": func(t *testing.T, m *model.Transformer) {
			cfg := adapter.LoRAConfig{Rank: 4, Alpha: 8,
				Targets: []adapter.Target{adapter.TargetQ, adapter.TargetK, adapter.TargetV, adapter.TargetO}}
			ad, err := adapter.InjectLoRA(tensor.NewRNG(51), m.Blocks, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(52)
			for _, l := range ad.Layers() {
				l.B.Value.FillNormal(rng, 0.05)
			}
		},
		"prefix": func(t *testing.T, m *model.Transformer) {
			if _, err := adapter.InjectPrefix(tensor.NewRNG(53), m.Blocks, m.Cfg.Dim, adapter.PrefixConfig{PrefixLen: 5}); err != nil {
				t.Fatal(err)
			}
		},
	}
	const positions = 20
	for _, par := range []int{1, 4} {
		tensor.SetParallelism(par)
		for _, cfg := range []model.Config{model.OPTTiny(), model.LlamaTiny()} {
			for _, name := range []string{"plain", "lora", "prefix"} {
				m, err := model.New(tensor.NewRNG(50), cfg)
				if err != nil {
					t.Fatal(err)
				}
				adapters[name](t, m)
				rng := tensor.NewRNG(54)
				tokens := make([]int, positions)
				for i := range tokens {
					tokens[i] = rng.Intn(cfg.Vocab)
				}
				input, body, output, err := m.Split(model.DefaultCut)
				if err != nil {
					t.Fatal(err)
				}
				in, err := input.NewDecodeState(positions)
				if err != nil {
					t.Fatal(err)
				}
				state, err := body.NewDecodeState(positions, cfg.Dim)
				if err != nil {
					t.Fatal(err)
				}
				differ := 0
				for p, id := range tokens {
					x, err := input.DecodeStep(id, in)
					if err != nil {
						t.Fatal(err)
					}
					if x, err = body.DecodeStep(x, state); err != nil {
						t.Fatal(err)
					}
					got, _, err := output.Forward(x, false)
					if err != nil {
						t.Fatal(err)
					}
					full := noGradLogits(t, input, body, output, tokens[:p+1])
					for c := 0; c < cfg.Vocab; c++ {
						if math.Float32bits(got.At(0, c)) != math.Float32bits(full.At(p, c)) {
							differ++
						}
					}
				}
				if differ > 0 {
					t.Errorf("%s %s at parallelism %d: %d of %d decoded logits differ from the full forward",
						cfg.Name, name, par, differ, positions*cfg.Vocab)
				}
			}
		}
	}
}

// noGradLogits is the no-grad full forward of one sequence through the
// three sections.
func noGradLogits(t *testing.T, input *model.InputSection, body *model.BodySection, output *model.OutputSection, tokens []int) *tensor.Tensor {
	t.Helper()
	xc, _, err := input.Forward(tokens, 1, len(tokens), false)
	if err != nil {
		t.Fatal(err)
	}
	xs, _, err := body.Forward(xc, 1, len(tokens), false)
	if err != nil {
		t.Fatal(err)
	}
	logits, _, err := output.Forward(xs, false)
	if err != nil {
		t.Fatal(err)
	}
	return logits
}
