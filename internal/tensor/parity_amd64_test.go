//go:build amd64 && !purego

package tensor_test

import (
	"math"
	"testing"

	"menos/internal/model"
	"menos/internal/tensor"
)

// TestTrainingBitIdenticalWithoutAsm trains OPTTiny once on every
// kernel tier this CPU runs — the AVX-512 tile, the AVX2 kernels, and
// the portable twins that `-tags purego` and every other GOARCH run —
// and demands byte-identical losses and weights from all of them: which
// tier a machine has must never show in a result.
func TestTrainingBitIdenticalWithoutAsm(t *testing.T) {
	tiers := tensor.Tiers()
	if len(tiers) < 2 {
		t.Skip("no assembly tier on this CPU")
	}
	const steps, batch, seq = 3, 2, 16
	type run struct {
		m      *model.Transformer
		losses []float64
	}
	runs := make([]run, len(tiers))
	for i, tier := range tiers {
		tensor.WithTier(tier, func() {
			m, losses, err := trainOPTTiny(42, 11, batch, seq, steps)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = run{m, losses}
		})
	}

	ref := runs[0]
	for i, r := range runs[1:] {
		tier := tiers[i+1]
		for s := range ref.losses {
			if math.Float64bits(ref.losses[s]) != math.Float64bits(r.losses[s]) {
				t.Fatalf("step %d loss differs: %v (%s) vs %v (%s)", s, ref.losses[s], tiers[0], r.losses[s], tier)
			}
		}
		pa, pb := ref.m.Params(), r.m.Params()
		for p := range pa {
			da, db := pa[p].Value.Data(), pb[p].Value.Data()
			for j := range da {
				if math.Float32bits(da[j]) != math.Float32bits(db[j]) {
					t.Fatalf("param %q element %d differs after %d steps: %g (%s) vs %g (%s)",
						pa[p].Name, j, steps, da[j], tiers[0], db[j], tier)
				}
			}
		}
	}
}
