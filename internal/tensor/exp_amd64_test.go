//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestVectorKernelsMatchPortable drives the elementwise assembly
// kernels — the five exp-based ones and the residual Add, AXPY and
// Scale — against their scalar definitions at every length 0..67 (no
// vector, whole vectors, every tail) and every start offset 0..8 (every
// alignment of the first element within a vector), on inputs salted
// with the values where a lane-wise and a scalar implementation could
// part ways: both clamp edges of exp and their neighbours, GELU's
// clamp, signed zeros, subnormals, huge magnitudes, infinities, NaN.
// Each element must come out bit-identical (NaN for NaN: which payload
// survives a product of two NaNs is the operand order's business), and
// the canaries around the destination must survive, so a store past
// the tail mask fails too. The same calls on the portable tier — the
// dispatch a purego build or another GOARCH takes — must agree as well.
func TestVectorKernelsMatchPortable(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	const maxLen, maxOff = 67, 8
	const shift = float32(0.75)
	salt := []float32{
		0, float32(math.Copysign(0, -1)), 1e-40, -1e-40, math.SmallestNonzeroFloat32,
		expLo, expHi, math.Nextafter32(expLo, -inf32), math.Nextafter32(expHi, inf32),
		expLo + shift, expHi + shift, -87.4, 88.8, -100, 100,
		geluClamp, -geluClamp, 10.2, -10.2, 12, -12, 1e20, -1e20,
		math.MaxFloat32, -math.MaxFloat32, inf32, -inf32, float32(math.NaN()),
	}
	rng := NewRNG(77)
	fill := func(scale float64) []float32 {
		buf := NewNormal(rng, scale, maxOff+maxLen).data
		for i := range buf {
			if rng.Intn(3) == 0 {
				buf[i] = salt[rng.Intn(len(salt))]
			}
		}
		return buf
	}
	xs, dys := fill(4), fill(1)

	kernels := []struct {
		name   string
		vector func(dst, x, dy []float32)
		scalar func(x, dy float32) float32
	}{
		{"expShift", func(dst, x, _ []float32) { expShift(dst, x, shift) }, func(x, _ float32) float32 { return expGo(x - shift) }},
		{"gelu", func(dst, x, _ []float32) { geluRange(dst, x) }, func(x, _ float32) float32 { return geluGo(x) }},
		{"geluGrad", geluGradRange, geluGradGo},
		{"silu", func(dst, x, _ []float32) { siluRange(dst, x) }, func(x, _ float32) float32 { return siluGo(x) }},
		{"siluGrad", siluGradRange, siluGradGo},
		{"add", addRange, func(x, dy float32) float32 { return x + dy }},
		{"axpy", func(dst, x, dy []float32) { copy(dst, dy); axpyRange(shift, x, dst) },
			func(x, dy float32) float32 { return dy + float32(shift*x) }},
		{"scale", func(dst, x, _ []float32) { copy(dst, x); scaleRange(shift, dst) },
			func(x, _ float32) float32 { return x * shift }},
	}
	const canary = float32(-12345.678)
	for _, k := range kernels {
		for n := 0; n <= maxLen; n++ {
			for off := 0; off <= maxOff; off++ {
				x, dy := xs[off:off+n], dys[off:off+n]
				run := func() []float32 {
					dst := make([]float32, off+n+8)
					for i := range dst {
						dst[i] = canary
					}
					k.vector(dst[off:off+n], x, dy)
					return dst
				}
				asm := run()
				var portable []float32
				WithTier(TierPortable, func() { portable = run() })
				label := fmt.Sprintf("%s n=%d off=%d", k.name, n, off)
				for i, got := range asm {
					want, in := canary, canary // outside the slice: untouched
					if i >= off && i < off+n {
						in = x[i-off]
						want = k.scalar(in, dy[i-off])
					}
					for impl, g := range map[string]float32{"assembly": got, "portable tier": portable[i]} {
						if math.Float32bits(g) != math.Float32bits(want) && !(g != g && want != want) {
							t.Fatalf("%s: %s element %d (x = %g) is %g (%#x), want %g (%#x)", label, impl, i-off,
								in, g, math.Float32bits(g), want, math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}

// TestPackTMatchesScalarLoop: the shuffle transpose is a copy, so it
// has to reproduce the scalar loop exactly, whatever mix of whole 8x8
// blocks and edges kb and cols give it, and leave the rest of the panel
// alone.
func TestPackTMatchesScalarLoop(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := NewRNG(8)
	for _, kb := range []int{1, 7, 8, 9, 16, 31, packK - 1, packK} {
		for cols := 1; cols <= tileCols; cols++ {
			k := kb + rng.Intn(5)
			b := NewNormal(rng, 1, cols, k).data
			var got, want [packK * tileCols]float32
			for i := range got {
				got[i], want[i] = -1, -1
			}
			packT(&got, b, k, kb, cols)
			WithTier(TierPortable, func() { packT(&want, b, k, kb, cols) })
			if got != want {
				t.Fatalf("kb=%d cols=%d k=%d: packed panels differ", kb, cols, k)
			}
			if got[0] != b[0] || got[(kb-1)*tileCols+cols-1] != b[(cols-1)*k+kb-1] {
				t.Fatalf("kb=%d cols=%d k=%d: panel corners are not b's", kb, cols, k)
			}
		}
	}
}

// TestLayerNormKernelsMatchPortable drives LayerNorm's three row
// kernels against their portable twins, as TestVectorKernelsMatchPortable
// does the elementwise ones: every row length 0..67 and start offset
// 0..8, inputs salted with signed zeros, subnormals, huge values,
// infinities and NaN, every output element bit-identical (NaN for NaN),
// the canaries around every output untouched. The forward runs with its
// own xhat and with xhat aliasing out, as a no-grad forward calls it.
func TestLayerNormKernelsMatchPortable(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	const maxLen, maxOff = 67, 8
	salt := []float32{
		0, float32(math.Copysign(0, -1)), 1e-40, -1e-40, 1e30, -1e30,
		math.MaxFloat32, -math.MaxFloat32, inf32, -inf32, float32(math.NaN()),
	}
	rng := NewRNG(78)
	fill := func() []float32 {
		buf := NewNormal(rng, 2, maxOff+maxLen).data
		for i := range buf {
			if rng.Intn(4) == 0 {
				buf[i] = salt[rng.Intn(len(salt))]
			}
		}
		return buf
	}
	x, gamma, beta, dy, xhat := fill(), fill(), fill(), fill(), fill()
	const canary = float32(-12345.678)
	canaried := func(n, off int) []float32 {
		buf := make([]float32, off+n+8)
		for i := range buf {
			buf[i] = canary
		}
		return buf
	}
	kernels := map[string]func(n, off int) [][]float32{
		"forward": func(n, off int) [][]float32 {
			out, xh := canaried(n, off), canaried(n, off)
			layerNormRow(out[off:off+n], xh[off:off+n], x[off:off+n], gamma[off:off+n], beta[off:off+n], 0.375, 1.25)
			return [][]float32{out, xh}
		},
		"forward no-grad": func(n, off int) [][]float32 {
			out := canaried(n, off)
			layerNormRow(out[off:off+n], out[off:off+n], x[off:off+n], gamma[off:off+n], beta[off:off+n], -0.5, 3)
			return [][]float32{out}
		},
		"dx": func(n, off int) [][]float32 {
			dx := canaried(n, off)
			layerNormGradRow(dx[off:off+n], dy[off:off+n], xhat[off:off+n], gamma[off:off+n], 0.01, float64(n), 1.5, -2.25)
			return [][]float32{dx}
		},
		"param grads": func(n, off int) [][]float32 {
			dg, db := canaried(n, off), canaried(n, off)
			copy(dg[off:], x[off:off+n])
			copy(db[off:], beta[off:off+n])
			layerNormParamGradRow(dg[off:off+n], db[off:off+n], dy[off:off+n], xhat[off:off+n])
			return [][]float32{dg, db}
		},
	}
	for name, run := range kernels {
		for n := 0; n <= maxLen; n++ {
			for off := 0; off <= maxOff; off++ {
				asm := run(n, off)
				var portable [][]float32
				WithTier(TierPortable, func() { portable = run(n, off) })
				for o := range asm {
					for i, g := range asm[o] {
						w := portable[o][i]
						if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
							t.Fatalf("%s n=%d off=%d: output %d element %d is %g (%#x), portable %g (%#x)",
								name, n, off, o, i-off, g, math.Float32bits(g), w, math.Float32bits(w))
						}
						if (i < off || i >= off+n) && math.Float32bits(g) != math.Float32bits(canary) {
							t.Fatalf("%s n=%d off=%d: output %d element %d outside the row was written", name, n, off, o, i-off)
						}
					}
				}
			}
		}
	}
}
