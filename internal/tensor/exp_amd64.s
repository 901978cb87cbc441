//go:build amd64 && !purego

#include "textflag.h"

// The float32 exp and the kernels built on it (docs/NUMERICS.md). Each
// of the eight lanes of a YMM register is one element; every
// instruction below is one IEEE float32 operation per lane (or an
// integer or bitwise one), in the order exp.go performs it on a scalar,
// so the two produce the same bits. That rules out a fused multiply-add
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

// GELUGRAD: x in Y5, dy in Y8; leaves geluGradGo in Y1.
#define GELUGRAD \
	GELUSIGMA              \
	VMOVUPS K_ONE, Y2      \
	VSUBPS  Y1, Y2, Y2     \
	VMULPS  Y1, Y2, Y2     \
	VMULPS  K_GW1, Y7, Y3  \
	VADDPS  K_GW0, Y3, Y3  \
	VMULPS  Y3, Y2, Y2     \
	VMULPS  Y5, Y2, Y2     \
	VADDPS  Y1, Y2, Y2     \
	VMULPS  Y8, Y2, Y1

// SILUSIGMA: x in Y5; leaves s = 1/(1 + exp(-x)) in Y1.
#define SILUSIGMA \
	VXORPS K_SIGN, Y5, Y0 \
	SIGMOID

// SILUGRAD: x in Y5, dy in Y8; leaves siluGradGo in Y1.
#define SILUGRAD \
	SILUSIGMA              \
	VMOVUPS K_ONE, Y2      \
	VSUBPS  Y1, Y2, Y2     \
	VMULPS  Y5, Y2, Y2     \
	VADDPS  K_ONE, Y2, Y2  \
	VMULPS  Y1, Y2, Y2     \
	VMULPS  Y8, Y2, Y1

// TAILMASK: Y15 = the mask of the first CX lanes, 1 <= CX <= 7.
#define TAILMASK \
	LEAQ    ·laneMask+32(SB), AX  \
	SHLQ    $2, CX                \
	SUBQ    CX, AX                \
	VMOVDQU (AX), Y15

// All five kernels walk their slices eight elements at a time with
// plain loads and stores and finish a remainder of 1..7 under a lane
// mask: masked-off lanes load as zero, compute something harmless and
// are not stored. SI, DX and DI advance together; CX counts down.

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

// func geluGradAVX2(dx, x, dy *float32, n int)
TEXT ·geluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ dy+16(FP), DX
	MOVQ n+24(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI), Y5
	VMOVUPS (DX), Y8
	GELUGRAD
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
	TAILMASK
	VMASKMOVPS (SI), Y15, Y5
	VMASKMOVPS (DX), Y15, Y8
	GELUGRAD
	VMASKMOVPS Y1, Y15, (DI)
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

// func siluGradAVX2(dx, x, dy *float32, n int)
TEXT ·siluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ dy+16(FP), DX
	MOVQ n+24(FP), CX
	LEAQ ·expK(SB), R8
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI), Y5
	VMOVUPS (DX), Y8
	SILUGRAD
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
	TAILMASK
	VMASKMOVPS (SI), Y15, Y5
	VMASKMOVPS (DX), Y15, Y8
	SILUGRAD
	VMASKMOVPS Y1, Y15, (DI)
done:
	VZEROUPPER
	RET
