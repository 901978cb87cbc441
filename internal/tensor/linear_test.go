package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// TestLinearForwardIsMatMulThenBias: a biased Linear's forward, whose
// bias the matmul tile adds before its store, equals tensor.MatMul
// followed by a plain loop adding b[c] to every row, bit for bit, at
// the projection shapes of the perf-mid workloads (64 rows
// for large_plain's 2 x 32 tokens, 32 for a tenants_batched member), on
// every kernel tier this machine runs and on an arena, so the output
// buffer is a recycled one.
func TestLinearForwardIsMatMulThenBias(t *testing.T) {
	for _, tier := range tensor.Tiers() {
		tensor.WithTier(tier, func() {
			sc := tensor.NewScratch()
			for _, rows := range []int{64, 32} {
				for _, s := range []struct{ in, out int }{{128, 128}, {128, 512}, {512, 128}} {
					rng := tensor.NewRNG(uint64(rows*s.in + s.out))
					l := nn.NewLinear(rng, s.in, s.out, true)
					l.B.Value.FillNormal(rng, 1)
					l.SetScratch(sc)
					x := tensor.NewNormal(rng, 1, rows, s.in)
					for pass := 0; pass < 2; pass++ { // the second forward runs on a recycled buffer
						got, err := l.Forward(x, nil)
						if err != nil {
							t.Fatal(err)
						}
						want := tensor.New(rows, s.out)
						if err := tensor.MatMul(want, x, l.W.Value); err != nil {
							t.Fatal(err)
						}
						wd, b := want.Data(), l.B.Value.Data()
						for i := range wd {
							wd[i] += b[i%s.out]
						}
						label := fmt.Sprintf("%s %dx%dx%d pass %d", tier, rows, s.in, s.out, pass)
						for i, g := range got.Data() {
							if math.Float32bits(g) != math.Float32bits(wd[i]) {
								t.Fatalf("%s: element %d is %g, want %g", label, i, g, wd[i])
							}
						}
						sc.Put(got)
					}
				}
			}
		})
	}
}
