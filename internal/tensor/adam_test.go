package tensor

import (
	"math"
	"testing"
)

// adamRef is the Adam update of one element as nn's optimizer loop
// wrote it before the kernel existed: the reference every tier's
// AdamStep.Update must reproduce bit for bit.
func adamRef(s AdamStep, p, g, m, v float32) (float32, float32, float32) {
	b1, b2 := float32(s.Beta1), float32(s.Beta2)
	m = float32(b1*m) + float32((1-b1)*g)
	v = float32(b2*v) + float32((1-b2)*g*g)
	mHat := float64(m) / s.BC1
	vHat := float64(v) / s.BC2
	p -= float32(s.LR * mHat / (math.Sqrt(vHat) + s.Eps))
	return p, m, v
}

// TestAdamUpdateMatchesReference drives AdamStep.Update at every tier
// this CPU runs, every length 0..67 (no vector, whole vectors, every
// tail) and every start offset 0..8, at steps 1, 2 and 1000 (the bias
// corrections far from and near 1). Gradients are salted with signed
// zeros, subnormals, huge values, infinities and NaN, and the moments
// carry what such gradients leave behind. All four buffers must come
// out bit-identical to adamRef (NaN for NaN) with the canaries around
// them untouched.
func TestAdamUpdateMatchesReference(t *testing.T) {
	const maxLen, maxOff = 67, 8
	salt := []float32{
		0, float32(math.Copysign(0, -1)), 1e-40, -1e-40, math.SmallestNonzeroFloat32,
		1e-20, -1e-20, 1e20, -1e20, math.MaxFloat32, -math.MaxFloat32,
		inf32, -inf32, float32(math.NaN()),
	}
	rng := NewRNG(79)
	fill := func(scale float64, salted bool) []float32 {
		buf := NewNormal(rng, scale, maxOff+maxLen).data
		for i := range buf {
			if salted && rng.Intn(3) == 0 {
				buf[i] = salt[rng.Intn(len(salt))]
			}
		}
		return buf
	}
	ps, gs, ms, vs := fill(1, false), fill(1e-2, true), fill(1e-3, true), fill(1e-5, true)
	for i, x := range vs {
		vs[i] = float32(math.Abs(float64(x)))
	}
	const canary = float32(-12345.678)
	for _, step := range []int{1, 2, 1000} {
		s := AdamStep{
			Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, LR: 3e-4,
			BC1: 1 - math.Pow(0.9, float64(step)),
			BC2: 1 - math.Pow(0.999, float64(step)),
		}
		for n := 0; n <= maxLen; n++ {
			for off := 0; off <= maxOff; off++ {
				for _, tier := range Tiers() {
					bufs := make([][]float32, 4)
					views := make([]*Tensor, 4)
					for b, src := range [][]float32{ps, gs, ms, vs} {
						bufs[b] = make([]float32, off+n+8)
						for i := range bufs[b] {
							bufs[b][i] = canary
						}
						copy(bufs[b][off:], src[off:off+n])
						views[b] = MustFromSlice(bufs[b][off:off+n], n)
					}
					var err error
					WithTier(tier, func() { err = s.Update(views[0], views[1], views[2], views[3]) })
					if err != nil {
						t.Fatal(err)
					}
					for i := range bufs[0] {
						want := []float32{canary, canary, canary, canary}
						if i >= off && i < off+n {
							want[0], want[2], want[3] = adamRef(s, ps[i], gs[i], ms[i], vs[i])
							want[1] = gs[i]
						}
						for b, name := range []string{"p", "g", "m", "v"} {
							g, w := bufs[b][i], want[b]
							if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
								t.Fatalf("step %d n=%d off=%d tier %s: %s[%d] is %g (%#x), want %g (%#x) (g = %g)",
									step, n, off, tier, name, i-off, g, math.Float32bits(g), w, math.Float32bits(w), gs[i])
							}
						}
					}
				}
			}
		}
	}
	if err := (AdamStep{}).Update(New(3), New(3), New(3), New(4)); err == nil {
		t.Fatal("Update accepted moments of another length")
	}
}
