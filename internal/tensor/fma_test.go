package tensor

import (
	"math"
	"math/big"
	"testing"
)

// bigFMA32 is a·b + c rounded once to the nearest float32, ties to
// even, computed exactly in math/big: the reference every fused
// multiply-add of the package is held to. Non-finite operands follow
// IEEE's special-value rules, which give the same answer at any
// precision, so float64 arithmetic decides them.
func bigFMA32(a, b, c float32) float32 {
	fa, fb, fc := float64(a), float64(b), float64(c)
	if isNonFinite(fa) || isNonFinite(fb) || isNonFinite(fc) {
		return float32(fa*fb + fc)
	}
	const prec = 1024 // wide enough for any float32 product plus any float32
	p := new(big.Float).SetPrec(prec).Mul(big.NewFloat(fa), big.NewFloat(fb))
	s := new(big.Float).SetPrec(prec).Add(p, big.NewFloat(fc))
	if s.Sign() == 0 {
		// An exact zero is −0 only when both addends are −0.
		if p.Sign() == 0 && math.Signbit(fa) != math.Signbit(fb) && math.Signbit(fc) {
			return float32(math.Copysign(0, -1))
		}
		return 0
	}
	f, _ := s.Float32()
	return f
}

func isNonFinite(x float64) bool { return math.IsInf(x, 0) || math.IsNaN(x) }

// fmaRef is bigFMA32 at the speed the reference matmul loops need. It
// shares no code with the tiles: math.FMA rounds a·b + c once to
// float64, and that converts to the correctly rounded float32 unless
// it is itself a float32 halfway point (the one place the first
// rounding can have moved the sum across one), lies below the float32
// normal range, or overflows float32 (where the last halfway point
// sits); those go to math/big.
func fmaRef(a, b, c float32) float32 {
	s := math.FMA(float64(a), float64(b), float64(c))
	r := float32(s)
	switch {
	case float64(r) == s || isNonFinite(s):
		return r
	case math.Abs(s) < 0x1p-126 || math.IsInf(float64(r), 0):
		return bigFMA32(a, b, c)
	}
	// The neighbour of r on s's side; s halfway between them is a tie.
	other := math.Nextafter32(r, float32(math.Copysign(math.Inf(1), s-float64(r))))
	if s == (float64(r)+float64(other))/2 {
		return bigFMA32(a, b, c)
	}
	return r
}

// naiveFMA32 is the twice-rounded form a fused tile must not compute:
// the float64 sum converted to float32.
func naiveFMA32(a, b, c float32) float32 {
	return float32(float64(a)*float64(b) + float64(c))
}

type fmaTriple struct{ a, b, c float32 }

// adversarialTriples builds the inputs where a multiply-add is easy to
// get wrong.
func adversarialTriples(rng *RNG) []fmaTriple {
	var ts []fmaTriple
	add := func(a, b, c float32) {
		ts = append(ts, fmaTriple{a, b, c}, fmaTriple{-a, b, -c}, fmaTriple{b, a, c})
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	randNormal := func(lo, hi int) float32 { // a float32 in ±[2^lo, 2^hi)
		e := lo + rng.Intn(hi-lo)
		m := 1 + float64(rng.Intn(1<<23))/(1<<23)
		if rng.Intn(2) == 0 {
			m = -m
		}
		return float32(math.Ldexp(m, e))
	}

	// Double-rounding ties. With a = 2^ea(1 + v·2⁻¹⁸) and
	// b = 2^eb(1 − v·2⁻¹⁸), a·b = 2^(ea+eb)(1 − v²·2⁻³⁶): a hair less
	// than a power of two. Sized to half a unit in the last place of c,
	// the true sum sits just inside a float32 halfway point of c, so
	// close that the float64 sum lands on it and a second rounding
	// breaks the tie by evenness — wrong whenever c's last bit is odd.
	for i := 0; i < 1000; i++ {
		c := randNormal(-100, 100)
		if i%2 == 0 {
			c = math.Float32frombits(math.Float32bits(c) | 1) // odd: the tie rounds the wrong way
		}
		_, ec := math.Frexp(float64(c))
		half := ec - 25 // exponent of half an ulp of c
		v := 1 + rng.Intn(11)
		ea := half / 2
		a := float32(math.Ldexp(1+float64(v)/(1<<18), ea))
		b := float32(math.Ldexp(1-float64(v)/(1<<18), half-ea))
		add(a, b, c)
		add(-a, b, c)
	}
	// The same at the top of the range: MaxFloat32 plus just under half
	// its ulp is MaxFloat32, not +Inf.
	for v := 1; v <= 11; v++ {
		a := float32(math.Ldexp(1+float64(v)/(1<<18), 52))
		b := float32(math.Ldexp(1-float64(v)/(1<<18), 51))
		add(a, b, math.MaxFloat32)
		add(-a, b, math.MaxFloat32)
		add(2*a, b, math.MaxFloat32) // just under a whole ulp: +Inf
	}
	// ... and among the subnormals, whose halfway points are odd
	// multiples of 2⁻¹⁵⁰.
	for i := 0; i < 500; i++ {
		c := math.Float32frombits(uint32(rng.Intn(1 << 23)))
		half := -150 - rng.Intn(3)
		if rng.Intn(2) == 0 {
			half = -150 + rng.Intn(24) // through the subnormals into the normals
		}
		v := 1 + rng.Intn(11)
		a := float32(math.Ldexp(1+float64(v)/(1<<18), half/2))
		b := float32(math.Ldexp(1-float64(v)/(1<<18), half-half/2))
		add(a, b, c)
		add(-a, b, c)
	}
	// Cancellation: c is minus the rounded product (or a neighbour of
	// it), so the result is the product's rounding error or close to it.
	for i := 0; i < 1000; i++ {
		a, b := randNormal(-60, 60), randNormal(-60, 60)
		c := -float32(float64(a) * float64(b))
		if isNonFinite(float64(c)) {
			continue
		}
		bits := math.Float32bits(c)
		add(a, b, c)
		add(a, b, math.Float32frombits(bits+1))
		add(a, b, math.Float32frombits(bits-1))
	}
	// Subnormal and underflowing results.
	for i := 0; i < 500; i++ {
		a, b := randNormal(-80, -40), randNormal(-100, -60)
		add(a, b, 0)
		add(a, b, math.Float32frombits(uint32(rng.Intn(1<<23))))
		add(a, b, math.SmallestNonzeroFloat32)
	}
	// Overflow at the float32 boundary.
	for i := 0; i < 250; i++ {
		a, b := randNormal(60, 66), randNormal(60, 66)
		add(a, b, 0)
		add(a, b, math.MaxFloat32)
		add(a, b, -math.MaxFloat32)
		add(randNormal(100, 104), randNormal(-2, 2), randNormal(126, 128))
	}
	// Signed zeros, infinities and NaN in every position.
	special := []float32{0, negZero, 1, -1, inf, -inf, nan, math.SmallestNonzeroFloat32, math.MaxFloat32, 3e-39}
	for _, a := range special {
		for _, b := range special {
			for _, c := range special {
				ts = append(ts, fmaTriple{a, b, c})
			}
		}
	}
	return ts
}

// randomTriples mixes ordinary values with uniformly random bit
// patterns, which reach every exponent, the subnormals, ±Inf and NaN.
func randomTriples(rng *RNG, n int) []fmaTriple {
	ts := make([]fmaTriple, n)
	for i := range ts {
		if i%2 == 0 {
			ts[i] = fmaTriple{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		} else {
			ts[i] = fmaTriple{
				math.Float32frombits(uint32(rng.Uint64())),
				math.Float32frombits(uint32(rng.Uint64())),
				math.Float32frombits(uint32(rng.Uint64())),
			}
		}
	}
	return ts
}

// sameFloat is bit equality, except that any NaN equals any NaN: which
// payload survives is operand order, which nothing here pins.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// TestFusedMultiplyAddIsExact holds every fused multiply-add of the
// package to bigFMA32: the portable tile's four-row body and its
// one-row loop, the assembly tiles of every tier the CPU runs, and the
// test reference fmaRef, over random triples and adversarial ones —
// constructed double-rounding ties (normal, subnormal and at the
// overflow boundary), cancellation, subnormal results, signed zeros,
// overflow, ±Inf and NaN. It also checks that the adversarial set can
// fail: the twice-rounded form is wrong on thousands of its triples.
func TestFusedMultiplyAddIsExact(t *testing.T) {
	rng := NewRNG(41)
	adversarial := adversarialTriples(rng)
	naiveWrong := 0
	for _, x := range adversarial {
		if !sameFloat(naiveFMA32(x.a, x.b, x.c), bigFMA32(x.a, x.b, x.c)) {
			naiveWrong++
		}
	}
	if naiveWrong < 1000 {
		t.Fatalf("the twice-rounded form is wrong on only %d of %d adversarial triples", naiveWrong, len(adversarial))
	}
	t.Logf("%d adversarial triples, %d of them rounded wrong by float32(float64(a)*float64(b) + float64(c))",
		len(adversarial), naiveWrong)

	var a, d [wideTileRows]float32
	var b [1]float32
	for _, x := range append(adversarial, randomTriples(rng, 200000)...) {
		want := bigFMA32(x.a, x.b, x.c)
		check := func(label string, row int, got float32) {
			if !sameFloat(got, want) {
				t.Helper()
				t.Fatalf("%s, row %d: fma(%g, %g, %g) = %g (%#x), want %g (%#x)", label, row, x.a, x.b, x.c,
					got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
		check("fmaRef", 0, fmaRef(x.a, x.b, x.c))
		// One reduction step (k = 1) of a one-column tile whose rows
		// all hold the triple: d[r] = a[r]·b[0] + d[r].
		run := func(label string, rows int, kernel func()) {
			for r := 0; r < rows; r++ {
				a[r], d[r] = x.a, x.c
			}
			b[0] = x.b
			kernel()
			for r := 0; r < rows; r++ {
				check(label, r, d[r])
			}
		}
		run("tileGo four-row body", tileRows, func() {
			tileGo(d[:], 1, a[:], 1, 1, b[:], 1, 1, tileRows, 1, false, nil)
		})
		run("tileGo one row", 1, func() {
			tileGo(d[:], 1, a[:], 1, 1, b[:], 1, 1, 1, 1, false, nil)
		})
		for _, tier := range Tiers() {
			run(tier+" tile", wideTileRows, func() {
				WithTier(tier, func() { tile(d[:], 1, a[:], 1, 1, b[:], 1, 1, wideTileRows, 1, false, nil) })
			})
		}
	}
}

// TestBigFMA32RoundsLikeTheHardware checks the reference's last step,
// big.Float's rounding to float32, against the CPU's conversion of
// float64 values: normals, subnormals and their halfway points, and
// values around the overflow threshold.
func TestBigFMA32RoundsLikeTheHardware(t *testing.T) {
	rng := NewRNG(42)
	for i := 0; i < 100000; i++ {
		x := math.Float64frombits(rng.Uint64())
		switch i % 4 {
		case 0: // somewhere in or near the float32 range
			x = math.Ldexp(rng.NormFloat64(), rng.Intn(300)-170)
		case 1: // a float32 halfway point, or one float64 ulp off it
			f := float64(math.Float32frombits(uint32(rng.Uint64())&^(0xff<<23) | uint32(rng.Intn(256))<<23))
			x = math.Float64frombits(math.Float64bits(f) + uint64(rng.Intn(3)) - 1 + 1<<28)
		case 2: // around MaxFloat32 and its rounding threshold
			x = math.Float64frombits(math.Float64bits(math.MaxFloat32) + uint64(rng.Intn(1<<30)) - 1<<29)
		}
		if isNonFinite(x) {
			continue
		}
		got, _ := big.NewFloat(x).Float32()
		if want := float32(x); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("big.Float rounds %g (%#x) to %g, the CPU to %g", x, math.Float64bits(x), got, want)
		}
	}
}
