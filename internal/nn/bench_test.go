package nn

import (
	"fmt"
	"testing"

	"menos/internal/tensor"
)

// Layer benchmarks at the shapes a perf-mid training step (Dim 128,
// FFN 512, 2 x 32 tokens = 64 rows) runs them at, on an arena as the
// model attaches one, so a recycled output is what each iteration
// writes. docs/PERFORMANCE.md ("The step around the tile") has the
// numbers.

// BenchmarkLayerNorm times one forward that keeps its cache and the
// backward over it, with parameter gradients, at 64 x 128.
func BenchmarkLayerNorm(b *testing.B) {
	const rows, dim = 64, 128
	rng := tensor.NewRNG(3)
	l := NewLayerNorm(dim)
	l.Gamma.Value.FillNormal(rng, 1)
	l.Beta.Value.FillNormal(rng, 1)
	sc := tensor.NewScratch()
	l.SetScratch(sc)
	x, dy := tensor.NewNormal(rng, 1, rows, dim), tensor.NewNormal(rng, 1, rows, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c LayerNormCache
		out, err := l.Forward(x, &c)
		if err != nil {
			b.Fatal(err)
		}
		dx, err := l.Backward(&c, dy, true)
		if err != nil {
			b.Fatal(err)
		}
		sc.Put(out, dx)
	}
}

// BenchmarkLinearForward times a biased Linear's no-grad forward at the
// three projection shapes of a perf-mid block, pinned to one worker as
// the step's two sessions each run.
func BenchmarkLinearForward(b *testing.B) {
	prev := tensor.Parallelism()
	tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	for _, s := range []struct{ rows, in, out int }{{64, 128, 128}, {64, 128, 512}, {64, 512, 128}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.rows, s.in, s.out), func(b *testing.B) {
			rng := tensor.NewRNG(4)
			l := NewLinear(rng, s.in, s.out, true)
			l.B.Value.FillNormal(rng, 1)
			sc := tensor.NewScratch()
			l.SetScratch(sc)
			x := tensor.NewNormal(rng, 1, s.rows, s.in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y, err := l.Forward(x, nil)
				if err != nil {
					b.Fatal(err)
				}
				sc.Put(y)
			}
			flops := 2 * float64(s.rows) * float64(s.in) * float64(s.out) * float64(b.N)
			b.ReportMetric(flops/1e9/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}
