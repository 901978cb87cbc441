package tensor

import (
	"math"
	"testing"
)

// ulps returns |got - want| in units of the float32 spacing at want.
// The oracle side of every accuracy test in this file is float64 math,
// which is the arithmetic these kernels replaced.
func ulps(got float32, want float64) float64 {
	w := float32(want)
	spacing := float64(math.Float32frombits(math.Float32bits(w)+1)) - float64(w)
	return math.Abs(float64(got)-want) / spacing
}

// TestExpWithinTwoUlps is the accuracy half of docs/NUMERICS.md: over
// 2²⁴ evenly spaced points of [expLo, expHi] the float32 exp is within
// 2 ulp of float64 math.Exp (measured: under 1). The sweep runs through
// expShift, i.e. the assembly where there is one, and every point is
// also compared bit for bit with the portable expGo.
func TestExpWithinTwoUlps(t *testing.T) {
	const points, chunk = 1 << 24, 1 << 12
	lo, hi := float64(expLo), float64(expHi)
	src, dst := make([]float32, chunk), make([]float32, chunk)
	worst, worstAt := 0.0, float32(0)
	for base := 0; base <= points; base += chunk {
		n := min(chunk, points+1-base)
		for i := range src[:n] {
			x := float32(lo + (hi-lo)*float64(base+i)/points)
			src[i] = min(max(x, expLo), expHi)
		}
		expShift(dst[:n], src[:n], 0)
		for i, x := range src[:n] {
			if got := expGo(x); math.Float32bits(got) != math.Float32bits(dst[i]) {
				t.Fatalf("exp(%g): kernel %g (%#x), portable %g (%#x)",
					x, dst[i], math.Float32bits(dst[i]), got, math.Float32bits(got))
			}
			if d := ulps(dst[i], math.Exp(float64(x))); d > worst {
				worst, worstAt = d, x
			}
		}
	}
	t.Logf("worst error %.3f ulp at x = %g", worst, worstAt)
	if worst > 2 {
		t.Fatalf("exp(%g) is %.3f ulp from math.Exp, want <= 2", worstAt, worst)
	}
}

// TestExpSpecialValues pins what exp does outside the sweep: exact 1 at
// ±0 and for subnormal arguments, +0 below expLo (a result is never
// subnormal), +Inf above expHi, NaN for NaN, and normal, accurate
// results at the two clamp edges themselves.
func TestExpSpecialValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	below := math.Nextafter32(expLo, -inf32)
	above := math.Nextafter32(expHi, inf32)
	in := []float32{
		0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40,
		expLo, expHi, below, above, -100, 100, -math.MaxFloat32, math.MaxFloat32, -inf32, inf32, nan,
		// Padding past one vector, so the values above sit in a full
		// vector and the copies below in the masked tail.
		0, negZero, expLo, expHi, below, above, -inf32, inf32, nan,
	}
	want := []float32{
		1, 1, 1, 1, 1, 1,
		float32(math.Exp(float64(expLo))), float32(math.Exp(float64(expHi))), 0, inf32, 0, inf32, 0, inf32, 0, inf32, nan,
		1, 1, float32(math.Exp(float64(expLo))), float32(math.Exp(float64(expHi))), 0, inf32, 0, inf32, nan,
	}
	check := func(name string, got []float32) {
		t.Helper()
		for i, x := range in {
			g, w := got[i], want[i]
			switch {
			case w != w:
				if g == g {
					t.Errorf("%s: exp(NaN) = %g", name, g)
				}
			case x == expLo || x == expHi:
				if d := ulps(g, math.Exp(float64(x))); d > 2 || g < math.SmallestNonzeroFloat32*(1<<23) || g > math.MaxFloat32 {
					t.Errorf("%s: exp(%g) = %g, %.2f ulp off", name, x, g, d)
				}
			case math.Float32bits(g) != math.Float32bits(w):
				t.Errorf("%s: exp(%g) = %g (%#x), want %g", name, x, g, math.Float32bits(g), w)
			}
		}
	}
	got := make([]float32, len(in))
	expShift(got, in, 0)
	check("expShift", got)
	for i, x := range in {
		got[i] = expGo(x)
	}
	check("expGo", got)
}

// TestActivationsFollowTheirDefinitions checks the tensor-level
// kernels against float64 evaluations of their definitions — GELU in
// its σ form x·σ(2u), which is the tanh form 0.5x(1 + tanh u) without
// the cancellation that zeroes the latter's negative tail even in
// float64, and SiLU x·σ(x), with their derivatives — on a dense grid of
// [-20, 20], at the tolerances docs/NUMERICS.md states: the activations
// within 3 ulp (measured 2.3), the derivatives — O(1) quantities whose
// 1−σ term cancels near σ = 1 — within 4e-6 absolute (measured 2e-6).
func TestActivationsFollowTheirDefinitions(t *testing.T) {
	const n = 1 << 20
	x, dy, out := New(n), New(n), New(n)
	for i := range x.data {
		x.data[i] = float32(-20 + 40*float64(i)/n)
	}
	dy.Fill(1)
	// sigma returns σ(v) and 1−σ(v), each computed without cancellation.
	sigma := func(v float64) (s, oneMinus float64) {
		e := math.Exp(-v)
		if math.IsInf(e, 1) {
			return 0, 1
		}
		return 1 / (1 + e), e / (1 + e)
	}
	twoU := func(v float64) float64 { return 2 * geluC0 * (v + geluC1*v*v*v) }
	cases := []struct {
		name   string
		run    func() error
		want   func(v float64) float64
		maxUlp float64 // 0: absolute tolerance maxAbs instead
		maxAbs float64
	}{
		{"GELU", func() error { return GELU(out, x) },
			func(v float64) float64 { s, _ := sigma(twoU(v)); return v * s }, 3, 0},
		{"GELUBackward", func() error { return GELUBackward(out, x, dy) },
			func(v float64) float64 {
				s, om := sigma(twoU(v))
				return s + v*s*om*2*geluC0*(1+3*geluC1*v*v)
			}, 0, 4e-6},
		{"SiLU", func() error { return SiLU(out, x) },
			func(v float64) float64 { s, _ := sigma(v); return v * s }, 3, 0},
		{"SiLUBackward", func() error { return SiLUBackward(out, x, dy) },
			func(v float64) float64 { s, om := sigma(v); return s * (1 + v*om) }, 0, 4e-6},
	}
	for _, c := range cases {
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range x.data {
			got, want := out.data[i], c.want(float64(v))
			if c.maxUlp > 0 && math.Abs(want) >= math.SmallestNonzeroFloat32*(1<<23) {
				if d := ulps(got, want); d > c.maxUlp {
					t.Fatalf("%s(%g) = %g, want %g: %.2f ulp off, allowed %g", c.name, v, got, want, d, c.maxUlp)
				}
			} else if d := math.Abs(float64(got) - want); d > max(c.maxAbs, math.SmallestNonzeroFloat32*(1<<23)) {
				t.Fatalf("%s(%g) = %g, want %g: off by %g", c.name, v, got, want, d)
			}
		}
	}
}

// TestActivationsSaturateWithoutNaN: gelu(0) and silu(0) are exactly 0,
// and far from the origin — including where x² or x³ overflows float32
// — the activations are x or 0 and their derivatives 1 or 0, never NaN.
func TestActivationsSaturateWithoutNaN(t *testing.T) {
	xs := []float32{0, float32(math.Copysign(0, -1)), 100, -100, 1e20, -1e20, math.MaxFloat32, -math.MaxFloat32}
	x, dy, out := New(len(xs)), New(len(xs)), New(len(xs))
	copy(x.data, xs)
	dy.Fill(1)
	for name, run := range map[string]func() error{
		"GELU": func() error { return GELU(out, x) },
		"SiLU": func() error { return SiLU(out, x) },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range xs {
			want := v
			if v <= 0 {
				want = 0
			}
			if got := out.data[i]; got != want {
				t.Errorf("%s(%g) = %g, want %g", name, v, got, want)
			}
		}
	}
	for name, run := range map[string]func() error{
		"GELUBackward": func() error { return GELUBackward(out, x, dy) },
		"SiLUBackward": func() error { return SiLUBackward(out, x, dy) },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range xs {
			want := float32(0.5)
			if v > 0 {
				want = 1
			} else if v < 0 {
				want = 0
			}
			if got := out.data[i]; got != want {
				t.Errorf("%s at %g = %g, want %g", name, v, got, want)
			}
		}
	}
}
