package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks at the shapes docs/PERFORMANCE.md reports: the
// 512-cube of the compute-plane acceptance numbers, and the products a
// perf-mid split fine-tuning step is made of (linear layers at 64 rows,
// per-head attention, rank-8 LoRA), and the projections of an opt-tiny
// step at 16 rows (small_plain's). Each shape is measured at the
// pool's configured parallelism ("pool"), pinned to one worker
// ("serial"), and pinned to one worker on the AVX2 tier ("avx2"), so
// the parallel speedup and, on an AVX-512 machine, the gain of the
// 8 x 32 tile over the 4 x 16 one are visible in one -bench run.

const benchDim = 512

// benchShapes are dst(m,n) with inner dimension k.
var benchShapes = []struct{ m, k, n int }{
	{benchDim, benchDim, benchDim},
	{64, 128, 512},
	{64, 512, 128},
	{64, 128, 128},
	{32, 32, 32},
	{64, 128, 8},
	{64, 8, 128},
	{16, 64, 64},
	{16, 64, 256},
	{16, 256, 64},
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
			serial := func(b *testing.B) {
				prev := Parallelism()
				SetParallelism(1)
				defer SetParallelism(prev)
				run(b)
			}
			b.Run("serial", serial)
			b.Run("avx2", func(b *testing.B) {
				if !hasTier(TierAVX2) {
					b.Skip("no AVX2 on this CPU")
				}
				WithTier(TierAVX2, func() { serial(b) })
			})
		})
	}
}

func BenchmarkMatMul(b *testing.B)       { benchMatMul(b, MatMul, false, false) }
func BenchmarkMatMulT(b *testing.B)      { benchMatMul(b, MatMulT, false, true) }
func BenchmarkMatMulTAccum(b *testing.B) { benchMatMul(b, MatMulTAccum, true, false) }

// The elementwise kernels at the shapes a large_plain step runs them
// at: the 64x512 FFN hidden activation for GELU, one 32x32 attention
// head for softmax (and small_plain's causal 16x16 one), and the
// 16- and 32-column panels of a 512x128 weight for MatMulT's pack (the
// AVX2 and the AVX-512 tier's panel). Each reports
// ns per element next to ns/op; docs/PERFORMANCE.md ("Vector kernels")
// has the table.

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

// BenchmarkAdamUpdate is one Adam step over a 64 x 512 parameter, the
// optimizer's whole per-element work.
func BenchmarkAdamUpdate(b *testing.B) {
	rng := NewRNG(2)
	p, g := NewNormal(rng, 1, 64, 512), NewNormal(rng, 1e-2, 64, 512)
	m, v := New(64, 512), New(64, 512)
	s := AdamStep{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, LR: 1e-4, BC1: 0.1, BC2: 0.001}
	benchPerElement(b, p.Len(), func() {
		if err := s.Update(p, g, m, v); err != nil {
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
	// small_plain's attention head: 16 queries over 16 keys, scaled
	// and causally masked as the attention forward runs it, on a fresh
	// copy of the scores each time.
	x, s := NewNormal(NewRNG(2), 1, 16, 16), New(16, 16)
	b.Run("16x16causal", func(b *testing.B) {
		benchPerElement(b, x.Len(), func() {
			copy(s.data, x.data)
			SoftmaxCausal(s.Window(0, 0, 16, 16), 0.25, -1e9)
		})
	})
}

func BenchmarkPackT(b *testing.B) {
	const k, n = 512, 128
	w := NewNormal(NewRNG(2), 1, n, k)
	panel := make([]float32, packK*wideTileCols)
	for _, cols := range []int{tileCols, wideTileCols} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			benchPerElement(b, k*n, func() {
				for j := 0; j < n; j += cols {
					for p := 0; p < k; p += packK {
						packT(panel, cols, w.data[j*k+p:], k, packK, cols)
					}
				}
			})
		})
	}
}

// BenchmarkWeightResidency asks what a smaller base weight could buy:
// perf-mid's 24 projection products (4 blocks of Q, K, V, O, FFN Up,
// FFN Down at dim 128, FFN 512), each run forward (MatMul) and
// input-gradient backward (MatMulT), single-threaded. "hot" runs one
// block's weights four times (768 KB, stays in one core's L2); "cold"
// runs four distinct blocks (3 MB, does not). The cold-over-hot gap
// bounds what streaming fewer weight bytes (an int8 or int4 base)
// could save before paying to dequantize; docs/PERFORMANCE.md ("Why
// the served base is fp32") has the numbers.
func BenchmarkWeightResidency(b *testing.B) {
	const dim, ffn, layers = 128, 512, 4
	shapes := [][2]int{{dim, dim}, {dim, dim}, {dim, dim}, {dim, dim}, {dim, ffn}, {ffn, dim}}
	rng := NewRNG(3)
	blocks := make([][]*Tensor, layers)
	for l := range blocks {
		for _, s := range shapes {
			blocks[l] = append(blocks[l], NewNormal(rng, 0.02, s[0], s[1]))
		}
	}
	for _, rows := range []int{32, 64} {
		var xs, ys, dys, dxs []*Tensor
		for _, s := range shapes {
			xs = append(xs, NewNormal(rng, 1, rows, s[0]))
			ys = append(ys, New(rows, s[1]))
			dys = append(dys, NewNormal(rng, 1, rows, s[1]))
			dxs = append(dxs, New(rows, s[0]))
		}
		for _, mode := range []string{"hot", "cold"} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, mode), func(b *testing.B) {
				prev := Parallelism()
				SetParallelism(1)
				defer SetParallelism(prev)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for l := 0; l < layers; l++ {
						ws := blocks[0]
						if mode == "cold" {
							ws = blocks[l]
						}
						for j, w := range ws {
							if err := MatMul(ys[j], xs[j], w); err != nil {
								b.Fatal(err)
							}
							if err := MatMulT(dxs[j], dys[j], w); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			})
		}
	}
}
