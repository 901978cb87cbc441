package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks at the shapes docs/PERFORMANCE.md reports: the
// 512-cube of the compute-plane acceptance numbers, and the products a
// perf-mid split fine-tuning step is made of (linear layers at 64 rows,
// per-head attention, rank-8 LoRA). Each shape is measured at the
// pool's configured parallelism ("pool") and pinned to one worker
// ("serial"), so the parallel speedup is visible in one -bench run.

const benchDim = 512

// benchShapes are dst(m,n) with inner dimension k.
var benchShapes = []struct{ m, k, n int }{
	{benchDim, benchDim, benchDim},
	{64, 128, 512},
	{64, 512, 128},
	{32, 32, 32},
	{64, 128, 8},
	{64, 8, 128},
}

// benchMatMul runs op(dst, a, b) at every benchShape; aT / bT say
// which operand the variant stores transposed.
func benchMatMul(b *testing.B, op func(dst, a, b *Tensor) error, aT, bT bool) {
	for _, s := range benchShapes {
		rng := NewRNG(1)
		dst := New(s.m, s.n)
		x := NewNormal(rng, 1, s.m, s.k)
		if aT {
			x = NewNormal(rng, 1, s.k, s.m)
		}
		y := NewNormal(rng, 1, s.k, s.n)
		if bT {
			y = NewNormal(rng, 1, s.n, s.k)
		}
		run := func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(dst, x, y); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(b.N)
			b.ReportMetric(flops/1e9/b.Elapsed().Seconds(), "GFLOP/s")
		}
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			b.Run("pool", run)
			b.Run("serial", func(b *testing.B) {
				prev := Parallelism()
				SetParallelism(1)
				defer SetParallelism(prev)
				run(b)
			})
		})
	}
}

func BenchmarkMatMul(b *testing.B)       { benchMatMul(b, MatMul, false, false) }
func BenchmarkMatMulAccum(b *testing.B)  { benchMatMul(b, MatMulAccum, false, false) }
func BenchmarkMatMulT(b *testing.B)      { benchMatMul(b, MatMulT, false, true) }
func BenchmarkMatMulTAccum(b *testing.B) { benchMatMul(b, MatMulTAccum, true, false) }

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := NewRNG(2)
	x := NewNormal(rng, 1, benchDim, benchDim)
	dst := New(benchDim, benchDim)
	b.SetBytes(2 * benchDim * benchDim * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SoftmaxRows(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}
