//go:build amd64 && !purego

#include "textflag.h"

// The float32 exp and the kernels built on it (docs/NUMERICS.md). Each
// of the eight lanes of a YMM register (sixteen of a ZMM register, in
// the AVX-512 forms at the end of the file) is one element; every
// instruction below is one IEEE float32 operation per lane (or an
// integer, bitwise or mask one), in the order exp.go performs it on a
// scalar, so the two produce the same bits. That rules out a fused multiply-add
// (one rounding where exp.go has two) and the approximate VRCPPS /
// VRSQRTPS; the division is VDIVPS. TestAsmTileNeverFusesOrReassociates
// greps for them.

// Rows of ·expK (exp_amd64.go), 32 bytes each, base in R8.
#define K_LO     0(R8)
#define K_HI     32(R8)
#define K_LOG2E  64(R8)
#define K_MAGIC  96(R8)
#define K_LN2HI  128(R8)
#define K_LN2LO  160(R8)
#define K_P0     192(R8)
#define K_P1     224(R8)
#define K_P2     256(R8)
#define K_P3     288(R8)
#define K_P4     320(R8)
#define K_P5     352(R8)
#define K_ONE    384(R8)
#define K_INF    416(R8)
#define K_SIGN   448(R8)
#define K_NCLAMP 480(R8)
#define K_CLAMP  512(R8)
#define K_GZ0    544(R8)
#define K_GZ1    576(R8)
#define K_GW0    608(R8)
#define K_GW1    640(R8)

// EXP: Y1 = exp(Y0), expGo lane by lane. Clobbers Y2-Y4, keeps Y0.
// In order: clamp the input to [lo, hi] (a NaN becomes lo), so that
// every intermediate is an ordinary number; t = x*log2e + magic leaves
// n = round(x*log2e) in t's low mantissa bits, n = t - magic as a
// float, and t's bits shifted left by 23 are n<<23; r = x - n*ln2hi -
// n*ln2lo; Horner for P(r), then 1 + r + r*r*P(r); the integer add puts
// n into the exponent. The last five instructions put +0 in the lanes
// that were below lo and x+Inf (+Inf, or the NaN) in those that were
// above hi or NaN.
#define EXP \
	VMAXPS    K_LO, Y0, Y1    \
	VMINPS    K_HI, Y1, Y1    \
	VMULPS    K_LOG2E, Y1, Y2 \
	VADDPS    K_MAGIC, Y2, Y2 \
	VSUBPS    K_MAGIC, Y2, Y3 \
	VPSLLD    $23, Y2, Y2     \
	VMULPS    K_LN2HI, Y3, Y4 \
	VSUBPS    Y4, Y1, Y1      \
	VMULPS    K_LN2LO, Y3, Y4 \
	VSUBPS    Y4, Y1, Y1      \
	VMULPS    K_P0, Y1, Y3    \
	VADDPS    K_P1, Y3, Y3    \
	VMULPS    Y1, Y3, Y3      \
	VADDPS    K_P2, Y3, Y3    \
	VMULPS    Y1, Y3, Y3      \
	VADDPS    K_P3, Y3, Y3    \
	VMULPS    Y1, Y3, Y3      \
	VADDPS    K_P4, Y3, Y3    \
	VMULPS    Y1, Y3, Y3      \
	VADDPS    K_P5, Y3, Y3    \
	VMULPS    Y1, Y1, Y4      \
	VMULPS    Y4, Y3, Y3      \
	VADDPS    Y1, Y3, Y3      \
	VADDPS    K_ONE, Y3, Y3   \
	VPADDD    Y2, Y3, Y3      \
	VCMPPS    $1, K_LO, Y0, Y1 \
	VANDNPS   Y3, Y1, Y3      \
	VCMPPS    $6, K_HI, Y0, Y1 \
	VADDPS    K_INF, Y0, Y2   \
	VBLENDVPS Y1, Y2, Y3, Y1

// SIGMOID: Y1 = 1/(1 + exp(Y0)), sigmoidOfNeg.
#define SIGMOID \
	EXP                    \
	VADDPS  K_ONE, Y1, Y1  \
	VMOVUPS K_ONE, Y2      \
	VDIVPS  Y1, Y2, Y1

// GELUSIGMA: x in Y5; leaves geluSigma's s in Y1 and xc*xc in Y7.
#define GELUSIGMA \
	VMAXPS K_NCLAMP, Y5, Y6 \
	VMINPS K_CLAMP, Y6, Y6  \
	VMULPS Y6, Y6, Y7       \
	VMULPS K_GZ1, Y7, Y0    \
	VADDPS K_GZ0, Y0, Y0    \
	VMULPS Y6, Y0, Y0       \
	SIGMOID

// GELUDERIV: x in Y5; leaves geluDerivGo's derivative in Y2 and s in
// Y1.
#define GELUDERIV \
	GELUSIGMA              \
	VMOVUPS K_ONE, Y2      \
	VSUBPS  Y1, Y2, Y2     \
	VMULPS  Y1, Y2, Y2     \
	VMULPS  K_GW1, Y7, Y3  \
	VADDPS  K_GW0, Y3, Y3  \
	VMULPS  Y3, Y2, Y2     \
	VMULPS  Y5, Y2, Y2     \
	VADDPS  Y1, Y2, Y2

// SILUSIGMA: x in Y5; leaves s = 1/(1 + exp(-x)) in Y1.
#define SILUSIGMA \
	VXORPS K_SIGN, Y5, Y0 \
	SIGMOID

// SILUDERIV: x in Y5; leaves siluDerivGo's derivative in Y2 and s in
// Y1.
#define SILUDERIV \
	SILUSIGMA              \
	VMOVUPS K_ONE, Y2      \
	VSUBPS  Y1, Y2, Y2     \
	VMULPS  Y5, Y2, Y2     \
	VADDPS  K_ONE, Y2, Y2  \
	VMULPS  Y1, Y2, Y2

// TAILMASK: Y15 = the mask of the first CX lanes, 1 <= CX <= 7.
#define TAILMASK \
	LEAQ    ·laneMask+32(SB), AX  \
	SHLQ    $2, CX                \
	SUBQ    CX, AX                \
	VMOVDQU (AX), Y15

// All seven kernels walk their slices eight elements at a time with
// plain loads and stores and finish a remainder of 1..7 under a lane
// mask: masked-off lanes load as zero, compute something harmless and
// are not stored. SI, DX and DI advance together; CX counts down. The
// two Deriv kernels store the activation at DI and the derivative back
// over x at SI.

// func expShiftAVX2(dst, src *float32, n int, shift float32)
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS shift+24(FP), Y9
	LEAQ         ·expK(SB), R8
	SUBQ         $8, CX
	JLT          tail
loop:
	VMOVUPS (SI), Y5
	VSUBPS  Y9, Y5, Y0
	EXP
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
	TAILMASK
	VMASKMOVPS (SI), Y15, Y5
	VSUBPS     Y9, Y5, Y0
	EXP
	VMASKMOVPS Y1, Y15, (DI)
done:
	VZEROUPPER
	RET

// func geluAVX2(dst, x *float32, n int)
TEXT ·geluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI), Y5
	GELUSIGMA
	VMULPS  Y5, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
	TAILMASK
	VMASKMOVPS (SI), Y15, Y5
	GELUSIGMA
	VMULPS     Y5, Y1, Y1
	VMASKMOVPS Y1, Y15, (DI)
done:
	VZEROUPPER
	RET

// func geluDerivAVX2(dst, x *float32, n int)
TEXT ·geluDerivAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI), Y5
	GELUDERIV
	VMULPS  Y5, Y1, Y1
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
	TAILMASK
	VMASKMOVPS (SI), Y15, Y5
	GELUDERIV
	VMULPS     Y5, Y1, Y1
	VMASKMOVPS Y1, Y15, (DI)
	VMASKMOVPS Y2, Y15, (SI)
done:
	VZEROUPPER
	RET

// func siluAVX2(dst, x *float32, n int)
TEXT ·siluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI), Y5
	SILUSIGMA
	VMULPS  Y5, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
	TAILMASK
	VMASKMOVPS (SI), Y15, Y5
	SILUSIGMA
	VMULPS     Y5, Y1, Y1
	VMASKMOVPS Y1, Y15, (DI)
done:
	VZEROUPPER
	RET

// func siluDerivAVX2(dst, x *float32, n int)
TEXT ·siluDerivAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI), Y5
	SILUDERIV
	VMULPS  Y5, Y1, Y1
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
	TAILMASK
	VMASKMOVPS (SI), Y15, Y5
	SILUDERIV
	VMULPS     Y5, Y1, Y1
	VMASKMOVPS Y1, Y15, (DI)
	VMASKMOVPS Y2, Y15, (SI)
done:
	VZEROUPPER
	RET

// The AVX-512 forms: the same kernels sixteen lanes at a time, each
// lane the same sequence of IEEE float32 operations as the AVX2 forms
// above and exp.go. Only AVX512F instructions appear. The constants are
// read with .BCST, one float of each ·expK row broadcast to every lane.
// A compare writes an opmask: the exponent add runs zero-masked where
// the input was below lo (the AVX2 form's VANDNPS), and VBLENDMPS puts
// x+Inf where it was above hi or NaN (its VBLENDVPS). A remainder of
// 1..15 elements runs under opmask K1: masked-off lanes load as zero,
// compute something harmless and are not stored.

// EXP16: Z1 = exp(Z0), EXP's steps. Clobbers Z2-Z4, K2, K3; keeps Z0.
// Compare predicate 5 is "not less than" (true for NaN), 6 "not less
// or equal" (greater than, or NaN).
#define EXP16 \
	VMAXPS.BCST    K_LO, Z0, Z1      \
	VMINPS.BCST    K_HI, Z1, Z1      \
	VMULPS.BCST    K_LOG2E, Z1, Z2   \
	VADDPS.BCST    K_MAGIC, Z2, Z2   \
	VSUBPS.BCST    K_MAGIC, Z2, Z3   \
	VPSLLD         $23, Z2, Z2       \
	VMULPS.BCST    K_LN2HI, Z3, Z4   \
	VSUBPS         Z4, Z1, Z1        \
	VMULPS.BCST    K_LN2LO, Z3, Z4   \
	VSUBPS         Z4, Z1, Z1        \
	VMULPS.BCST    K_P0, Z1, Z3      \
	VADDPS.BCST    K_P1, Z3, Z3      \
	VMULPS         Z1, Z3, Z3        \
	VADDPS.BCST    K_P2, Z3, Z3      \
	VMULPS         Z1, Z3, Z3        \
	VADDPS.BCST    K_P3, Z3, Z3      \
	VMULPS         Z1, Z3, Z3        \
	VADDPS.BCST    K_P4, Z3, Z3      \
	VMULPS         Z1, Z3, Z3        \
	VADDPS.BCST    K_P5, Z3, Z3      \
	VMULPS         Z1, Z1, Z4        \
	VMULPS         Z4, Z3, Z3        \
	VADDPS         Z1, Z3, Z3        \
	VADDPS.BCST    K_ONE, Z3, Z3     \
	VCMPPS.BCST    $5, K_LO, Z0, K2  \
	VPADDD.Z       Z2, Z3, K2, Z3    \
	VCMPPS.BCST    $6, K_HI, Z0, K3  \
	VADDPS.BCST    K_INF, Z0, Z2     \
	VBLENDMPS      Z2, Z3, K3, Z1

// SIGMOID16: Z1 = 1/(1 + exp(Z0)).
#define SIGMOID16 \
	EXP16                         \
	VADDPS.BCST  K_ONE, Z1, Z1    \
	VBROADCASTSS K_ONE, Z2        \
	VDIVPS       Z1, Z2, Z1

// GELUSIGMA16: x in Z5; leaves s in Z1 and xc*xc in Z7.
#define GELUSIGMA16 \
	VMAXPS.BCST K_NCLAMP, Z5, Z6 \
	VMINPS.BCST K_CLAMP, Z6, Z6  \
	VMULPS      Z6, Z6, Z7       \
	VMULPS.BCST K_GZ1, Z7, Z0    \
	VADDPS.BCST K_GZ0, Z0, Z0    \
	VMULPS      Z6, Z0, Z0       \
	SIGMOID16

// GELUDERIV16: x in Z5; leaves the derivative in Z2 and s in Z1.
#define GELUDERIV16 \
	GELUSIGMA16                \
	VBROADCASTSS K_ONE, Z2     \
	VSUBPS       Z1, Z2, Z2    \
	VMULPS       Z1, Z2, Z2    \
	VMULPS.BCST  K_GW1, Z7, Z3 \
	VADDPS.BCST  K_GW0, Z3, Z3 \
	VMULPS       Z3, Z2, Z2    \
	VMULPS       Z5, Z2, Z2    \
	VADDPS       Z1, Z2, Z2

// SILUSIGMA16: x in Z5; leaves s = 1/(1 + exp(-x)) in Z1.
#define SILUSIGMA16 \
	VPXORD.BCST K_SIGN, Z5, Z0 \
	SIGMOID16

// SILUDERIV16: x in Z5; leaves the derivative in Z2 and s in Z1.
#define SILUDERIV16 \
	SILUSIGMA16                \
	VBROADCASTSS K_ONE, Z2     \
	VSUBPS       Z1, Z2, Z2    \
	VMULPS       Z5, Z2, Z2    \
	VADDPS.BCST  K_ONE, Z2, Z2 \
	VMULPS       Z1, Z2, Z2

// TAILMASK16: K1 = the first CX lanes, 1 <= CX <= 15.
#define TAILMASK16 \
	MOVL  $1, AX  \
	SHLL  CX, AX  \
	DECL  AX      \
	KMOVW AX, K1

// func expShiftAVX512(dst, src *float32, n int, shift float32)
TEXT ·expShiftAVX512(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS shift+24(FP), Z9
	LEAQ         ·expK(SB), R8
	SUBQ         $16, CX
	JLT          tail
loop:
	VMOVUPS (SI), Z5
	VSUBPS  Z9, Z5, Z0
	EXP16
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JGE     loop
tail:
	ADDQ $16, CX
	JZ   done
	TAILMASK16
	VMOVUPS.Z (SI), K1, Z5
	VSUBPS    Z9, Z5, Z0
	EXP16
	VMOVUPS   Z1, K1, (DI)
done:
	VZEROUPPER
	RET

// func geluAVX512(dst, x *float32, n int)
TEXT ·geluAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $16, CX
	JLT  tail
loop:
	VMOVUPS (SI), Z5
	GELUSIGMA16
	VMULPS  Z5, Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JGE     loop
tail:
	ADDQ $16, CX
	JZ   done
	TAILMASK16
	VMOVUPS.Z (SI), K1, Z5
	GELUSIGMA16
	VMULPS    Z5, Z1, Z1
	VMOVUPS   Z1, K1, (DI)
done:
	VZEROUPPER
	RET

// func geluDerivAVX512(dst, x *float32, n int)
TEXT ·geluDerivAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $16, CX
	JLT  tail
loop:
	VMOVUPS (SI), Z5
	GELUDERIV16
	VMULPS  Z5, Z1, Z1
	VMOVUPS Z1, (DI)
	VMOVUPS Z2, (SI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JGE     loop
tail:
	ADDQ $16, CX
	JZ   done
	TAILMASK16
	VMOVUPS.Z (SI), K1, Z5
	GELUDERIV16
	VMULPS    Z5, Z1, Z1
	VMOVUPS   Z1, K1, (DI)
	VMOVUPS   Z2, K1, (SI)
done:
	VZEROUPPER
	RET

// func siluAVX512(dst, x *float32, n int)
TEXT ·siluAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $16, CX
	JLT  tail
loop:
	VMOVUPS (SI), Z5
	SILUSIGMA16
	VMULPS  Z5, Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JGE     loop
tail:
	ADDQ $16, CX
	JZ   done
	TAILMASK16
	VMOVUPS.Z (SI), K1, Z5
	SILUSIGMA16
	VMULPS    Z5, Z1, Z1
	VMOVUPS   Z1, K1, (DI)
done:
	VZEROUPPER
	RET

// func siluDerivAVX512(dst, x *float32, n int)
TEXT ·siluDerivAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $16, CX
	JLT  tail
loop:
	VMOVUPS (SI), Z5
	SILUDERIV16
	VMULPS  Z5, Z1, Z1
	VMOVUPS Z1, (DI)
	VMOVUPS Z2, (SI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JGE     loop
tail:
	ADDQ $16, CX
	JZ   done
	TAILMASK16
	VMOVUPS.Z (SI), K1, Z5
	SILUDERIV16
	VMULPS    Z5, Z1, Z1
	VMOVUPS   Z1, K1, (DI)
	VMOVUPS   Z2, K1, (SI)
done:
	VZEROUPPER
	RET
