//go:build amd64 && !purego

package tensor

import "math"

// expK is the constant table of the kernels in exp_amd64.s: every
// constant of exp.go broadcast to the eight lanes of a YMM register, so
// that an AVX2 instruction can take it as a memory operand (the AVX-512
// forms broadcast a row's first float with .BCST). Building it from
// the Go constants means the assembly and the portable functions cannot
// disagree about a value. The row order is the K_* offsets in the .s
// file.
var expK = func() (k [21][8]float32) {
	for i, c := range [len(k)]float32{
		expLo, expHi, expLog2e, expMagic, expLn2Hi, expLn2Lo,
		expP0, expP1, expP2, expP3, expP4, expP5,
		1, inf32, math.Float32frombits(1 << 31), // sign bit
		-geluClamp, geluClamp, geluZ0, geluZ1, geluW0, geluW1,
	} {
		for lane := range k[i] {
			k[i][lane] = c
		}
	}
	return k
}()

// The kernels below compute, on each of n >= 1 elements, exactly what
// the function of the same name in exp.go computes on one, eight lanes
// at a time (AVX2) or sixteen (AVX512); a final partial vector runs
// under a lane mask, so they neither read nor write past element n-1.
// dst may be src (or dy), except in the Deriv kernels, which write the
// activation to dst and its derivative over x.

//go:noescape
func expShiftAVX2(dst, src *float32, n int, shift float32)

//go:noescape
func geluAVX2(dst, x *float32, n int)

//go:noescape
func geluDerivAVX2(dst, x *float32, n int)

//go:noescape
func siluAVX2(dst, x *float32, n int)

//go:noescape
func siluDerivAVX2(dst, x *float32, n int)

//go:noescape
func expShiftAVX512(dst, src *float32, n int, shift float32)

//go:noescape
func geluAVX512(dst, x *float32, n int)

//go:noescape
func geluDerivAVX512(dst, x *float32, n int)

//go:noescape
func siluAVX512(dst, x *float32, n int)

//go:noescape
func siluDerivAVX512(dst, x *float32, n int)
