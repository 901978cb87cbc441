package tensor

import (
	"fmt"
	"math"
)

// One float32 exp sits under GELU, SiLU and softmax (docs/NUMERICS.md
// has the contract). This file is its portable form: scalar functions
// in which every operation is one IEEE float32 operation, in the order
// the AVX2 kernels in exp_amd64.s perform it on each lane. The eight
// lanes of a vector are eight different elements, so an element's bits
// never depend on which implementation computed it, on where a
// ParallelFor chunk or a batched row segment ends, or on how long the
// slice is.
//
// The one rule that keeps the two interchangeable: a product that feeds
// an add or a subtract is written float32(a*b). The conversion rounds
// the product, so a compiler that fuses multiply-adds (arm64, amd64 at
// GOAMD64=v3) cannot; the assembly uses VMULPS then VADDPS/VSUBPS and
// rounds twice as well.

// exp(x) = 2ⁿ·exp(r) with n = round(x·log₂e) and r = x − n·ln2, |r| ≤
// ln2/2. ln2 is split in two so that n·expLn2Hi is exact (expLn2Hi has
// nine significant bits); exp(r) is the Cephes expf polynomial
// 1 + r + r²·P(r). Measured against float64 math.Exp: under 1 ulp over
// [expLo, expHi].
const (
	// Below expLo the result is +0: the true value is within a factor
	// 1.04 of the smallest normal float32 and a result is never
	// subnormal. Above expHi it is +Inf.
	expLo float32 = -87.3
	expHi float32 = 88.7

	expLog2e float32 = 1.44269504088896341
	// Adding 1.5·2²³ leaves round-to-nearest-even(v) in the low
	// mantissa bits of the sum for |v| < 2²².
	expMagic float32 = 12582912
	expLn2Hi float32 = 0.693359375
	expLn2Lo float32 = -2.12194440e-4

	expP0 float32 = 1.9875691500e-4
	expP1 float32 = 1.3981999507e-3
	expP2 float32 = 8.3334519073e-3
	expP3 float32 = 4.1665795894e-2
	expP4 float32 = 1.6666665459e-1
	expP5 float32 = 5.0000001201e-1
)

// GELU (tanh form) is x·σ(2u) with u = c₀(x + c₁x³), because
// 0.5(1 + tanh u) = σ(2u). The kernels compute z = −2u as
// xc·(geluZ0 + geluZ1·xc²) and σ as 1/(1 + exp(z)); the gradient is
// σ + x·σ(1−σ)·w with w = d(2u)/dx = geluW0 + geluW1·xc².
const (
	geluC0 = 0.7978845608028654 // sqrt(2/pi)
	geluC1 = 0.044715

	geluZ0 float32 = -2 * geluC0
	geluZ1 float32 = -2 * geluC0 * geluC1
	geluW0 float32 = 2 * geluC0
	geluW1 float32 = 6 * geluC0 * geluC1

	// xc is x clamped to ±geluClamp before it is squared. At |x| = 10.2
	// exp(∓2u) already leaves [expLo, expHi], so σ is exactly 0 or 1
	// from there on and the clamp changes no result; it keeps xc² and w
	// finite, so the gradient's σ(1−σ)·w term is 0, not 0·Inf, for every
	// finite x.
	geluClamp float32 = 11
)

var inf32 = float32(math.Inf(1))

// expGo returns exp(x): NaN for NaN, +0 below expLo, +Inf above expHi.
func expGo(x float32) float32 {
	if x < expLo {
		return 0
	}
	if !(x <= expHi) {
		return x + inf32
	}
	t := float32(x*expLog2e) + expMagic
	n := t - expMagic
	r := x - float32(n*expLn2Hi)
	r -= float32(n * expLn2Lo)
	p := float32(expP0*r) + expP1
	p = float32(p*r) + expP2
	p = float32(p*r) + expP3
	p = float32(p*r) + expP4
	p = float32(p*r) + expP5
	r2 := float32(r * r)
	p = float32(p*r2) + r
	p++
	// The low nine bits of expMagic are zero, so t's bits shifted left
	// by 23 are n<<23 modulo 2³²: adding them to p's bits adds n to its
	// exponent. p is in [0.70, 1.42] and n in [-126, 128], with p > 1
	// at n = -126 and p < 1 at n = 128, so the exponent stays normal.
	return math.Float32frombits(math.Float32bits(p) + math.Float32bits(t)<<23)
}

// sigmoidOfNeg returns 1/(1 + exp(z)) = σ(−z).
func sigmoidOfNeg(z float32) float32 {
	return 1 / (1 + expGo(z))
}

// geluSigma returns σ(2u(x)) and the clamped square xc² the gradient
// needs.
func geluSigma(x float32) (s, x2 float32) {
	xc := -geluClamp
	if x > xc {
		xc = x
	}
	if !(xc < geluClamp) {
		xc = geluClamp
	}
	x2 = float32(xc * xc)
	z := float32(xc * (float32(geluZ1*x2) + geluZ0))
	return sigmoidOfNeg(z), x2
}

func geluGo(x float32) float32 {
	s, _ := geluSigma(x)
	return x * s
}

func geluGradGo(x, dy float32) float32 {
	s, x2 := geluSigma(x)
	t := float32(s * (1 - s))
	w := float32(geluW1*x2) + geluW0
	t = float32(t * w)
	t = float32(t * x)
	return dy * (s + t)
}

func siluGo(x float32) float32 {
	return x * sigmoidOfNeg(-x)
}

func siluGradGo(x, dy float32) float32 {
	s := sigmoidOfNeg(-x)
	t := float32(x*(1-s)) + 1
	return dy * float32(s*t)
}

// expShift writes dst[i] = exp(src[i] - shift) for every element of
// src. dst may be src.
func expShift(dst, src []float32, shift float32) {
	dst = dst[:len(src)]
	if haveAVX2 && len(src) > 0 {
		expShiftAVX2(&dst[0], &src[0], len(src), shift)
		return
	}
	for i, v := range src {
		dst[i] = expGo(v - shift)
	}
}

func geluRange(dst, x []float32) {
	dst = dst[:len(x)]
	if haveAVX2 && len(x) > 0 {
		geluAVX2(&dst[0], &x[0], len(x))
		return
	}
	for i, v := range x {
		dst[i] = geluGo(v)
	}
}

func geluGradRange(dx, x, dy []float32) {
	dx, dy = dx[:len(x)], dy[:len(x)]
	if haveAVX2 && len(x) > 0 {
		geluGradAVX2(&dx[0], &x[0], &dy[0], len(x))
		return
	}
	for i, v := range x {
		dx[i] = geluGradGo(v, dy[i])
	}
}

func siluRange(dst, x []float32) {
	dst = dst[:len(x)]
	if haveAVX2 && len(x) > 0 {
		siluAVX2(&dst[0], &x[0], len(x))
		return
	}
	for i, v := range x {
		dst[i] = siluGo(v)
	}
}

func siluGradRange(dx, x, dy []float32) {
	dx, dy = dx[:len(x)], dy[:len(x)]
	if haveAVX2 && len(x) > 0 {
		siluGradAVX2(&dx[0], &x[0], &dy[0], len(x))
		return
	}
	for i, v := range x {
		dx[i] = siluGradGo(v, dy[i])
	}
}

// actGrain is the ParallelFor grain of the activation kernels, in
// elements: the size from which two chunks plus a pool hand-off beat
// the caller doing it all. That is 1<<18 at the assembly's ≈1.1–1.6 ns
// per element (measured in docs/PERFORMANCE.md, "Fan-out threshold");
// the portable twins cost ten times that and keep the 1<<13 the
// float64 kernels of the same cost had. Where a chunk ends never shows
// in a bit, so the two forms still agree.
func actGrain() int {
	if haveAVX2 {
		return 1 << 18
	}
	return 1 << 13
}

// GELU computes dst = gelu(a) elementwise, the tanh-form Gaussian Error
// Linear Unit of OPT/GPT-style models. dst may be a.
func GELU(dst, a *Tensor) error {
	return activation("gelu", dst, a, geluRange)
}

// GELUBackward computes dx = dy · gelu'(x) elementwise. dx may be dy.
func GELUBackward(dx, x, dy *Tensor) error {
	return activationGrad("gelu backward", dx, x, dy, geluGradRange)
}

// SiLU computes dst = a·σ(a) elementwise, the activation of Llama's
// SwiGLU feed-forward network. dst may be a.
func SiLU(dst, a *Tensor) error {
	return activation("silu", dst, a, siluRange)
}

// SiLUBackward computes dx = dy · silu'(x) elementwise. dx may be dy.
func SiLUBackward(dx, x, dy *Tensor) error {
	return activationGrad("silu backward", dx, x, dy, siluGradRange)
}

func activation(op string, dst, a *Tensor, kernel func(dst, x []float32)) error {
	if len(dst.data) != len(a.data) {
		return fmt.Errorf("%w: %s of %v into %v", ErrShape, op, a.shape, dst.shape)
	}
	dd, ad := dst.data, a.data
	if serialFor(len(ad), actGrain()) {
		kernel(dd, ad)
		return nil
	}
	ParallelFor(len(ad), actGrain(), func(lo, hi int) {
		kernel(dd[lo:hi], ad[lo:hi])
	})
	return nil
}

func activationGrad(op string, dx, x, dy *Tensor, kernel func(dx, x, dy []float32)) error {
	if len(dx.data) != len(x.data) || len(dy.data) != len(x.data) {
		return fmt.Errorf("%w: %s of x %v, dy %v into %v", ErrShape, op, x.shape, dy.shape, dx.shape)
	}
	dxd, xd, dyd := dx.data, x.data, dy.data
	if serialFor(len(xd), actGrain()) {
		kernel(dxd, xd, dyd)
		return nil
	}
	ParallelFor(len(xd), actGrain(), func(lo, hi int) {
		kernel(dxd[lo:hi], xd[lo:hi], dyd[lo:hi])
	})
	return nil
}
