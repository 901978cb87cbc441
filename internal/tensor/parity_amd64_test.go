//go:build amd64 && !purego

package tensor_test

import (
	"math"
	"testing"

	"menos/internal/model"
	"menos/internal/tensor"
)

// TestTrainingBitIdenticalWithoutAsm trains OPTTiny twice, once on the
// assembly tile and once on the portable one (what `-tags purego` and
// every other GOARCH run), and demands byte-identical losses and
// weights: which tile a machine has must never show in a result.
func TestTrainingBitIdenticalWithoutAsm(t *testing.T) {
	if !tensor.HaveAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	const steps, batch, seq = 3, 2, 16
	train := func() (*model.Transformer, []float64) {
		m, losses, err := trainOPTTiny(42, 11, batch, seq, steps)
		if err != nil {
			t.Fatal(err)
		}
		return m, losses
	}

	asm, asmLoss := train()
	var portable *model.Transformer
	var portableLoss []float64
	tensor.WithoutAVX2(func() { portable, portableLoss = train() })

	for i := range asmLoss {
		if math.Float64bits(asmLoss[i]) != math.Float64bits(portableLoss[i]) {
			t.Fatalf("step %d loss differs: %v (asm) vs %v (portable)", i, asmLoss[i], portableLoss[i])
		}
	}
	pa, pp := asm.Params(), portable.Params()
	for i := range pa {
		da, dp := pa[i].Value.Data(), pp[i].Value.Data()
		for j := range da {
			if math.Float32bits(da[j]) != math.Float32bits(dp[j]) {
				t.Fatalf("param %q element %d differs after %d steps: %g vs %g", pa[i].Name, j, steps, da[j], dp[j])
			}
		}
	}
}
