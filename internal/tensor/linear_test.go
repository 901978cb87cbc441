package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// TestLinearForwardIsMatMulThenBias: a biased Linear's forward, whose
// bias the matmul tile adds before its store, equals a scalar loop —
// each sum folded in ascending p through tensor.FMARef, the exact
// once-rounded multiply-add, then b[c] added — bit for bit, at
// the projection shapes of the perf-mid workloads (64 rows
// for large_plain's 2 x 32 tokens, 32 for a tenants_batched member), on
// every kernel tier this machine runs and on an arena, so the output
// buffer is a recycled one.
func TestLinearForwardIsMatMulThenBias(t *testing.T) {
	for _, rows := range []int{64, 32} {
		for _, s := range []struct{ in, out int }{{128, 128}, {128, 512}, {512, 128}} {
			rng := tensor.NewRNG(uint64(rows*s.in + s.out))
			l := nn.NewLinear(rng, s.in, s.out, true)
			l.B.Value.FillNormal(rng, 1)
			x := tensor.NewNormal(rng, 1, rows, s.in)
			want := make([]float32, rows*s.out)
			xd, w, b := x.Data(), l.W.Value.Data(), l.B.Value.Data()
			for i := range want {
				r, c := i/s.out, i%s.out
				var v float32
				for p := 0; p < s.in; p++ {
					v = tensor.FMARef(xd[r*s.in+p], w[p*s.out+c], v)
				}
				want[i] = v + b[c]
			}
			for _, tier := range tensor.Tiers() {
				tensor.WithTier(tier, func() {
					sc := tensor.NewScratch()
					l.SetScratch(sc)
					for pass := 0; pass < 2; pass++ { // the second forward runs on a recycled buffer
						got, err := l.Forward(x, nil)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s %dx%dx%d pass %d", tier, rows, s.in, s.out, pass)
						for i, g := range got.Data() {
							if math.Float32bits(g) != math.Float32bits(want[i]) {
								t.Fatalf("%s: element %d is %g, want %g", label, i, g, want[i])
							}
						}
						sc.Put(got)
					}
				})
			}
		}
	}
}
