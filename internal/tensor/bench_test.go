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

// The elementwise kernels at the shapes a large_plain step runs them
// at: the 64x512 FFN hidden activation for GELU, one 32x32 attention
// head for softmax, and the 16-column panels of a 512x128 weight for
// MatMulT's pack. Each reports ns per element next to ns/op;
// docs/PERFORMANCE.md ("Vector kernels") has the table.

func benchPerElement(b *testing.B, elems int, op func()) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

func BenchmarkGELUForward(b *testing.B) {
	x, dst := NewNormal(NewRNG(2), 1, 64, 512), New(64, 512)
	benchPerElement(b, x.Len(), func() {
		if err := GELU(dst, x); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkGELUBackward(b *testing.B) {
	rng := NewRNG(2)
	x, dy, dx := NewNormal(rng, 1, 64, 512), NewNormal(rng, 1, 64, 512), New(64, 512)
	benchPerElement(b, x.Len(), func() {
		if err := GELUBackward(dx, x, dy); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkSoftmaxRows(b *testing.B) {
	for _, s := range []struct{ rows, cols int }{{32, 32}, {benchDim, benchDim}} {
		x, dst := NewNormal(NewRNG(2), 1, s.rows, s.cols), New(s.rows, s.cols)
		b.Run(fmt.Sprintf("%dx%d", s.rows, s.cols), func(b *testing.B) {
			benchPerElement(b, x.Len(), func() {
				if err := SoftmaxRows(dst, x); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func BenchmarkPackT(b *testing.B) {
	const k, n = 512, 128
	w := NewNormal(NewRNG(2), 1, n, k)
	var panel [packK * tileCols]float32
	benchPerElement(b, k*n, func() {
		for j := 0; j < n; j += tileCols {
			for p := 0; p < k; p += packK {
				packT(&panel, w.data[j*k+p:], k, packK, tileCols)
			}
		}
	})
}
