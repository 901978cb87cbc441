//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// TestVectorKernelsMatchPortable drives the elementwise assembly
// kernels — exp, GELU and SiLU, the derivatives the grad forward keeps,
// and the residual Add, Mul, AXPY and Scale — against their scalar
// definitions at every length 0..67 (no vector, whole vectors, every
// tail) and every start offset 0..8 (every
// alignment of the first element within a vector), on inputs salted
// with the values where a lane-wise and a scalar implementation could
// part ways: both clamp edges of exp and their neighbours, GELU's
// clamp, signed zeros, subnormals, huge magnitudes, infinities, NaN.
// Each element must come out bit-identical (NaN for NaN: which payload
// survives a product of two NaNs is the operand order's business), and
// the canaries around the destination must survive, so a store past
// the tail mask fails too. Every tier this CPU runs makes the same
// calls — AVX-512, AVX2 and the portable tier a purego build or another
// GOARCH takes — and each must agree.
func TestVectorKernelsMatchPortable(t *testing.T) {
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
		{"silu", func(dst, x, _ []float32) { siluRange(dst, x) }, func(x, _ float32) float32 { return siluGo(x) }},
		{"add", addRange, func(x, dy float32) float32 { return x + dy }},
		{"mul", mulRange, func(x, dy float32) float32 { return x * dy }},
		{"geluDeriv", func(dst, x, _ []float32) { d := slices.Clone(x); geluDerivRange(dst, d); copy(dst, d) },
			func(x, _ float32) float32 { _, d := geluDerivGo(x); return d }},
		{"siluDeriv", func(dst, x, _ []float32) { d := slices.Clone(x); siluDerivRange(dst, d); copy(dst, d) },
			func(x, _ float32) float32 { _, d := siluDerivGo(x); return d }},
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
				for _, tier := range Tiers() {
					var got []float32
					WithTier(tier, func() { got = run() })
					label := fmt.Sprintf("%s n=%d off=%d tier %s", k.name, n, off, tier)
					for i, g := range got {
						want, in := canary, canary // outside the slice: untouched
						if i >= off && i < off+n {
							in = x[i-off]
							want = k.scalar(in, dy[i-off])
						}
						if math.Float32bits(g) != math.Float32bits(want) && !(g != g && want != want) {
							t.Fatalf("%s: element %d (x = %g) is %g (%#x), want %g (%#x)", label, i-off,
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
// blocks and edges kb and cols give it, in the AVX2 tier's 16-wide
// panel and the AVX-512 tier's 32-wide one, at every tier this CPU
// runs, and leave the rest of the panel alone. The (kb, cols) pairs are
// the listed edges and every panel block boundaryShapes' products pack.
func TestPackTMatchesScalarLoop(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	type block struct{ kb, cols int }
	var blocks []block
	for _, ldp := range []int{tileCols, wideTileCols} {
		for _, kb := range []int{1, 7, 8, 9, 16, 31, packK - 1, packK} {
			for cols := 1; cols <= ldp; cols++ {
				blocks = append(blocks, block{kb, cols})
			}
		}
	}
	for _, s := range boundaryShapes {
		for p := 0; p < s.k; p += packK {
			for j := 0; j < s.n; j += wideTileCols {
				blocks = append(blocks, block{min(packK, s.k-p), min(wideTileCols, s.n-j)})
			}
		}
	}
	rng := NewRNG(8)
	for _, ldp := range []int{tileCols, wideTileCols} {
		for _, bl := range blocks {
			kb, cols := bl.kb, bl.cols
			if cols > ldp {
				continue
			}
			k := kb + rng.Intn(5)
			b := NewNormal(rng, 1, cols, k).data
			want := make([]float32, packK*ldp)
			for i := range want {
				want[i] = -1
			}
			got := slices.Clone(want)
			WithTier(TierPortable, func() { packT(want, ldp, b, k, kb, cols) })
			for _, tier := range Tiers() {
				WithTier(tier, func() { packT(got, ldp, b, k, kb, cols) })
				if !slices.Equal(got, want) {
					t.Fatalf("tier %s ldp=%d kb=%d cols=%d k=%d: packed panels differ", tier, ldp, kb, cols, k)
				}
			}
			if want[0] != b[0] || want[(kb-1)*ldp+cols-1] != b[(cols-1)*k+kb-1] {
				t.Fatalf("ldp=%d kb=%d cols=%d k=%d: panel corners are not b's", ldp, kb, cols, k)
			}
		}
	}
}

// TestPanelFrameHoldsThePanel: withPanel's frame is written as a
// number in the assembly; it has to hold runPanelJob's 32 bytes of
// arguments and the panel of panelFloats floats above them.
func TestPanelFrameHoldsThePanel(t *testing.T) {
	src, err := os.ReadFile("matmul_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`TEXT ·withPanel\(SB\), 0, \$(\d+)-8`).FindSubmatch(src)
	if m == nil {
		t.Fatal("no withPanel frame in matmul_amd64.s")
	}
	if frame, _ := strconv.Atoi(string(m[1])); frame != 32+4*panelFloats {
		t.Fatalf("withPanel's frame is %d bytes, want 32 + 4·panelFloats = %d", frame, 32+4*panelFloats)
	}
}

// TestLayerNormKernelsMatchPortable drives LayerNorm's three row
// kernels against their portable twins, as TestVectorKernelsMatchPortable
// does the elementwise ones: every row length 0..67 and start offset
// 0..8, inputs salted with signed zeros, subnormals, huge values,
// infinities and NaN, every output element bit-identical (NaN for NaN),
// the canaries around every output untouched, at every tier this CPU
// runs. The forward runs with its own xhat and with xhat aliasing out,
// as a no-grad forward calls it.
func TestLayerNormKernelsMatchPortable(t *testing.T) {
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
				var portable [][]float32
				WithTier(TierPortable, func() { portable = run(n, off) })
				for _, tier := range Tiers() {
					var got [][]float32
					WithTier(tier, func() { got = run(n, off) })
					for o := range got {
						for i, g := range got[o] {
							w := portable[o][i]
							if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
								t.Fatalf("%s n=%d off=%d tier %s: output %d element %d is %g (%#x), portable %g (%#x)",
									name, n, off, tier, o, i-off, g, math.Float32bits(g), w, math.Float32bits(w))
							}
							if (i < off || i >= off+n) && math.Float32bits(g) != math.Float32bits(canary) {
								t.Fatalf("%s n=%d off=%d tier %s: output %d element %d outside the row was written", name, n, off, tier, o, i-off)
							}
						}
					}
				}
			}
		}
	}

	// The row sums: eight rows in float64 lanes against each row on its
	// own, at every row length (the vector part and every tail), then
	// whole LayerNorm passes over 1..19 rows (groups of eight in lanes,
	// of four interleaved, the rest one at a time) at every tier.
	wide := func(n int) []float32 {
		buf := NewNormal(rng, 2, n).data
		for i := range buf {
			if rng.Intn(8) == 0 {
				buf[i] = salt[rng.Intn(len(salt))]
			}
		}
		return buf
	}
	same64 := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
	xs, dys, xhs, gs := wide(laneRows*maxLen), wide(laneRows*maxLen), wide(laneRows*maxLen), wide(maxLen)
	for cols := 1; cols <= maxLen; cols++ {
		x8, dy8, xh8, g := xs[:laneRows*cols], dys[:laneRows*cols], xhs[:laneRows*cols], gs[:cols]
		for _, tier := range Tiers()[:len(Tiers())-1] { // the tiers with AVX2
			var mean, sq, sums, tsums [laneRows]float64
			WithTier(tier, func() {
				mean, sq = rowMoments8(x8, cols)
				sums, tsums = gradSums8(dy8, xh8, g)
			})
			for i := range laneRows {
				m, q := rowMoments(x8[i*cols:][:cols])
				si, ti := gradSums(dy8[i*cols:][:cols], xh8[i*cols:][:cols], g)
				if !same64(mean[i], m) || !same64(sq[i], q) || !same64(sums[i], si) || !same64(tsums[i], ti) {
					t.Fatalf("cols=%d tier %s row %d: lane sums (%g, %g, %g, %g), one row alone (%g, %g, %g, %g)",
						cols, tier, i, mean[i], sq[i], sums[i], tsums[i], m, q, si, ti)
				}
			}
		}
	}
	for rows := 1; rows <= 19; rows++ {
		for _, cols := range []int{1, 3, 4, 5, 8, 17, 64, 67} {
			x, dyT := &Tensor{shape: []int{rows, cols}, data: wide(rows * cols)}, &Tensor{shape: []int{rows, cols}, data: wide(rows * cols)}
			gamma, beta := &Tensor{shape: []int{cols}, data: wide(cols)}, &Tensor{shape: []int{cols}, data: wide(cols)}
			pass := func() []*Tensor {
				out, xh, inv := New(rows, cols), New(rows, cols), New(rows)
				dx, dg, db := New(rows, cols), New(cols), New(cols)
				if err := LayerNorm(out, xh, inv, x, gamma, beta, 1e-5); err != nil {
					t.Fatal(err)
				}
				if err := LayerNormBackward(dx, dg, db, dyT, xh, inv, gamma); err != nil {
					t.Fatal(err)
				}
				return []*Tensor{out, xh, inv, dx, dg, db}
			}
			var portable []*Tensor
			WithTier(TierPortable, func() { portable = pass() })
			for _, tier := range Tiers() {
				var got []*Tensor
				WithTier(tier, func() { got = pass() })
				for o := range got {
					for i, g := range got[o].data {
						if w := portable[o].data[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
							t.Fatalf("LayerNorm %dx%d tier %s: output %d element %d is %g, portable %g", rows, cols, tier, o, i, g, w)
						}
					}
				}
			}
		}
	}
}
