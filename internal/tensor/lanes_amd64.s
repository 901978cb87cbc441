//go:build amd64 && !purego

#include "textflag.h"

// The lane kernels with no exp in them: the residual adds, the
// elementwise product, AXPY and Scale, and LayerNorm's per-element passes (docs/NUMERICS.md). The
// discipline is exp_amd64.s's: each lane is one element, every
// instruction is one IEEE operation per lane in the order the Go twin
// performs it on a scalar, no fused multiply-add, and a remainder of
// 1..7 elements runs under a lane mask. BX indexes the elements; the
// main loops run while a whole vector of eight is left (BX <= n-8 in CX).

// TAILMASK: Y15 = the mask of the first CX lanes, 1 <= CX <= 7.
#define TAILMASK \
	LEAQ    ·laneMask+32(SB), AX \
	SHLQ    $2, CX               \
	SUBQ    CX, AX               \
	VMOVDQU (AX), Y15

// REST: after a main loop, leave in CX how many elements remain (0..7),
// setting ZF when none do.
#define REST \
	ADDQ $8, CX \
	SUBQ BX, CX

// func addAVX2(d, a, b *float32, n int)
//
// d[i] = a[i] + b[i]; d may be a or b.
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI)(BX*4), Y0
	VADDPS  (DX)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLE     loop
tail:
	REST
	JZ   done
	LEAQ (SI)(BX*4), SI
	LEAQ (DX)(BX*4), DX
	LEAQ (DI)(BX*4), DI
	TAILMASK
	VMASKMOVPS (SI), Y15, Y0
	VMASKMOVPS (DX), Y15, Y1
	VADDPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
done:
	VZEROUPPER
	RET

// func mulAVX2(d, a, b *float32, n int)
//
// d[i] = a[i] * b[i]; d may be a or b.
TEXT ·mulAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI)(BX*4), Y0
	VMULPS  (DX)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLE     loop
tail:
	REST
	JZ   done
	LEAQ (SI)(BX*4), SI
	LEAQ (DX)(BX*4), DX
	LEAQ (DI)(BX*4), DI
	TAILMASK
	VMASKMOVPS (SI), Y15, Y0
	VMASKMOVPS (DX), Y15, Y1
	VMULPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
done:
	VZEROUPPER
	RET

// func axpyAVX2(d, x *float32, n int, alpha float32)
//
// d[i] = d[i] + alpha*x[i], the product rounded before the add.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y9
	XORQ         BX, BX
	SUBQ         $8, CX
	JLT          tail
loop:
	VMULPS  (SI)(BX*4), Y9, Y0
	VMOVUPS (DI)(BX*4), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLE     loop
tail:
	REST
	JZ   done
	LEAQ (SI)(BX*4), SI
	LEAQ (DI)(BX*4), DI
	TAILMASK
	VMASKMOVPS (SI), Y15, Y0
	VMULPS     Y0, Y9, Y0
	VMASKMOVPS (DI), Y15, Y1
	VADDPS     Y0, Y1, Y1
	VMASKMOVPS Y1, Y15, (DI)
done:
	VZEROUPPER
	RET

// func scaleAVX2(d *float32, n int, alpha float32)
//
// d[i] = d[i] * alpha.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ         d+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS alpha+16(FP), Y9
	XORQ         BX, BX
	SUBQ         $8, CX
	JLT          tail
loop:
	VMOVUPS (DI)(BX*4), Y0
	VMULPS  Y9, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLE     loop
tail:
	REST
	JZ   done
	LEAQ (DI)(BX*4), DI
	TAILMASK
	VMASKMOVPS (DI), Y15, Y0
	VMULPS     Y9, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
done:
	VZEROUPPER
	RET

// func layerNormRowAVX2(out, xhat, x, gamma, beta *float32, n int, mean, inv float32)
//
// One row of LayerNorm's forward: h = (x[c] - mean)*inv is stored to
// xhat[c], then out[c] = h*gamma[c] + beta[c]. xhat may be out, which
// the second store then overwrites.
TEXT ·layerNormRowAVX2(SB), NOSPLIT, $0-56
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         gamma+24(FP), DX
	MOVQ         beta+32(FP), R9
	MOVQ         n+40(FP), CX
	VBROADCASTSS mean+48(FP), Y8
	VBROADCASTSS inv+52(FP), Y9
	XORQ         BX, BX
	SUBQ         $8, CX
	JLT          tail
loop:
	VMOVUPS (SI)(BX*4), Y0
	VSUBPS  Y8, Y0, Y0
	VMULPS  Y9, Y0, Y0
	VMOVUPS Y0, (R8)(BX*4)
	VMULPS  (DX)(BX*4), Y0, Y0
	VADDPS  (R9)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLE     loop
tail:
	REST
	JZ   done
	LEAQ (SI)(BX*4), SI
	LEAQ (DX)(BX*4), DX
	LEAQ (R9)(BX*4), R9
	LEAQ (R8)(BX*4), R8
	LEAQ (DI)(BX*4), DI
	TAILMASK
	VMASKMOVPS (SI), Y15, Y0
	VMASKMOVPS (DX), Y15, Y1
	VMASKMOVPS (R9), Y15, Y2
	VSUBPS     Y8, Y0, Y0
	VMULPS     Y9, Y0, Y0
	VMASKMOVPS Y0, Y15, (R8)
	VMULPS     Y1, Y0, Y0
	VADDPS     Y2, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
done:
	VZEROUPPER
	RET

// GRADHALF: four lanes of LayerNorm's dx in float64. dy, g and xh are
// XMM registers of four float32s; leaves the four float32 results in
// out. With the row's constants broadcast in Y10 (k = inv/n), Y11 (n),
// Y12 (s = Σ dy·gamma) and Y13 (t = Σ dy·gamma·xhat):
//
//	dxh = dy*g                       exact: two 24-bit significands
//	out = float32(k * ((n*dxh - s) - xh*t))
//
// Clobbers Y3 and Y4.
#define GRADHALF(dy, g, xh, out) \
	VCVTPS2PD  dy, Y3   \
	VCVTPS2PD  g, Y4    \
	VMULPD     Y4, Y3, Y3  \
	VMULPD     Y11, Y3, Y3 \
	VSUBPD     Y12, Y3, Y3 \
	VCVTPS2PD  xh, Y4   \
	VMULPD     Y13, Y4, Y4 \
	VSUBPD     Y4, Y3, Y3  \
	VMULPD     Y10, Y3, Y3 \
	VCVTPD2PSY Y3, out

// GRAD8: eight lanes of dx from dy in Y0, gamma in Y1 and xhat in Y2;
// leaves them in Y0. Clobbers Y3-Y7.
#define GRAD8 \
	VEXTRACTF128 $1, Y0, X5 \
	VEXTRACTF128 $1, Y1, X6 \
	VEXTRACTF128 $1, Y2, X7 \
	GRADHALF(X5, X6, X7, X5) \
	GRADHALF(X0, X1, X2, X0) \
	VINSERTF128  $1, X5, Y0, Y0

// func layerNormGradRowAVX2(dx, dy, xhat, gamma *float32, n int, k, nf, s, t float64)
//
// One row of LayerNorm's dx: dx[c] = float32(k*((nf*dxh - s) -
// xhat[c]*t)) with dxh = dy[c]*gamma[c], every operation in float64.
TEXT ·layerNormGradRowAVX2(SB), NOSPLIT, $0-72
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), R8
	MOVQ         gamma+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSD k+40(FP), Y10
	VBROADCASTSD nf+48(FP), Y11
	VBROADCASTSD s+56(FP), Y12
	VBROADCASTSD t+64(FP), Y13
	XORQ         BX, BX
	SUBQ         $8, CX
	JLT          tail
loop:
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS (DX)(BX*4), Y1
	VMOVUPS (R8)(BX*4), Y2
	GRAD8
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLE     loop
tail:
	REST
	JZ   done
	LEAQ (SI)(BX*4), SI
	LEAQ (DX)(BX*4), DX
	LEAQ (R8)(BX*4), R8
	LEAQ (DI)(BX*4), DI
	TAILMASK
	VMASKMOVPS (SI), Y15, Y0
	VMASKMOVPS (DX), Y15, Y1
	VMASKMOVPS (R8), Y15, Y2
	GRAD8
	VMASKMOVPS Y0, Y15, (DI)
done:
	VZEROUPPER
	RET

// func layerNormParamGradAVX2(dg, db, dy, xhat *float32, n int)
//
// One row's share of LayerNorm's parameter gradients:
// dg[c] = dg[c] + dy[c]*xhat[c], the product rounded first, and
// db[c] = db[c] + dy[c].
TEXT ·layerNormParamGradAVX2(SB), NOSPLIT, $0-40
	MOVQ dg+0(FP), DI
	MOVQ db+8(FP), R8
	MOVQ dy+16(FP), SI
	MOVQ xhat+24(FP), DX
	MOVQ n+32(FP), CX
	XORQ BX, BX
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI)(BX*4), Y0
	VMULPS  (DX)(BX*4), Y0, Y1
	VMOVUPS (DI)(BX*4), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)(BX*4)
	VMOVUPS (R8)(BX*4), Y3
	VADDPS  Y0, Y3, Y3
	VMOVUPS Y3, (R8)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLE     loop
tail:
	REST
	JZ   done
	LEAQ (SI)(BX*4), SI
	LEAQ (DX)(BX*4), DX
	LEAQ (DI)(BX*4), DI
	LEAQ (R8)(BX*4), R8
	TAILMASK
	VMASKMOVPS (SI), Y15, Y0
	VMASKMOVPS (DX), Y15, Y1
	VMULPS     Y1, Y0, Y1
	VMASKMOVPS (DI), Y15, Y2
	VADDPS     Y1, Y2, Y2
	VMASKMOVPS Y2, Y15, (DI)
	VMASKMOVPS (R8), Y15, Y3
	VADDPS     Y0, Y3, Y3
	VMASKMOVPS Y3, Y15, (R8)
done:
	VZEROUPPER
	RET

// LayerNorm's float64 row sums, eight rows at a time: one row per
// float64 lane, rows 0-3 in one YMM accumulator and rows 4-7 in
// another. Each step loads four floats of each row widened to float64
// (VCVTPS2PD, exact) and transposes each 4x4 block (TRANSPOSE4), which
// leaves column c of four rows in one register; the columns are then
// added to the accumulators in ascending c. So each lane sees exactly
// its row's chain of rowMoments / gradSums, one add after another, and
// only eight chains run at once instead of four. n is a positive
// multiple of 4; the Go caller finishes the columns past it. R9 is the
// row stride in bytes; R10, R11, R12 are 3, 5 and 7 strides.

// TRANSPOSE4: A0-A3 hold rows 0-3 of a 4x4 float64 block; leaves
// column j in Aj. Clobbers Y8-Y11.
#define TRANSPOSE4(A0, A1, A2, A3) \
	VUNPCKLPD  A1, A0, Y8       \
	VUNPCKHPD  A1, A0, Y9       \
	VUNPCKLPD  A3, A2, Y10      \
	VUNPCKHPD  A3, A2, Y11      \
	VPERM2F128 $0x20, Y10, Y8, A0 \
	VPERM2F128 $0x20, Y11, Y9, A1 \
	VPERM2F128 $0x31, Y10, Y8, A2 \
	VPERM2F128 $0x31, Y11, Y9, A3

// ROWSTRIDES: R9 = ld floats in bytes, R10-R12 = 3, 5, 7 of it.
#define ROWSTRIDES \
	SHLQ $2, R9            \
	LEAQ (R9)(R9*2), R10   \
	LEAQ (R9)(R9*4), R11   \
	LEAQ (R10)(R9*4), R12

// func rowSums8AVX2(x *float32, ld, n int, sum *[8]float64)
//
// sum[i] = Σ float64(x[i*ld + c]) over c in [0, n), from +0.
TEXT ·rowSums8AVX2(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   ld+8(FP), R9
	MOVQ   n+16(FP), CX
	MOVQ   sum+24(FP), DI
	ROWSTRIDES
	SHRQ   $2, CX
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
sums:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD (SI)(R9*1), Y1
	VCVTPS2PD (SI)(R9*2), Y2
	VCVTPS2PD (SI)(R10*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VADDPD Y0, Y12, Y12
	VADDPD Y1, Y12, Y12
	VADDPD Y2, Y12, Y12
	VADDPD Y3, Y12, Y12
	VCVTPS2PD (SI)(R9*4), Y0
	VCVTPS2PD (SI)(R11*1), Y1
	VCVTPS2PD (SI)(R10*2), Y2
	VCVTPS2PD (SI)(R12*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VADDPD Y0, Y13, Y13
	VADDPD Y1, Y13, Y13
	VADDPD Y2, Y13, Y13
	VADDPD Y3, Y13, Y13
	ADDQ    $16, SI
	DECQ    CX
	JNZ     sums
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// func rowSqDev8AVX2(x *float32, ld, n int, mean, sq *[8]float64)
//
// sq[i] = Σ (float64(x[i*ld + c]) - mean[i])² over c in [0, n), from
// +0, each square rounded before its add.
TEXT ·rowSqDev8AVX2(SB), NOSPLIT, $0-40
	MOVQ    x+0(FP), SI
	MOVQ    ld+8(FP), R9
	MOVQ    n+16(FP), CX
	MOVQ    mean+24(FP), DX
	MOVQ    sq+32(FP), DI
	ROWSTRIDES
	SHRQ    $2, CX
	VMOVUPD (DX), Y14
	VMOVUPD 32(DX), Y15
	VXORPD  Y12, Y12, Y12
	VXORPD  Y13, Y13, Y13
sqdev:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD (SI)(R9*1), Y1
	VCVTPS2PD (SI)(R9*2), Y2
	VCVTPS2PD (SI)(R10*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VSUBPD Y14, Y0, Y0
	VMULPD Y0, Y0, Y0
	VADDPD Y0, Y12, Y12
	VSUBPD Y14, Y1, Y1
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y12, Y12
	VSUBPD Y14, Y2, Y2
	VMULPD Y2, Y2, Y2
	VADDPD Y2, Y12, Y12
	VSUBPD Y14, Y3, Y3
	VMULPD Y3, Y3, Y3
	VADDPD Y3, Y12, Y12
	VCVTPS2PD (SI)(R9*4), Y0
	VCVTPS2PD (SI)(R11*1), Y1
	VCVTPS2PD (SI)(R10*2), Y2
	VCVTPS2PD (SI)(R12*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VSUBPD Y15, Y0, Y0
	VMULPD Y0, Y0, Y0
	VADDPD Y0, Y13, Y13
	VSUBPD Y15, Y1, Y1
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y13, Y13
	VSUBPD Y15, Y2, Y2
	VMULPD Y2, Y2, Y2
	VADDPD Y2, Y13, Y13
	VSUBPD Y15, Y3, Y3
	VMULPD Y3, Y3, Y3
	VADDPD Y3, Y13, Y13
	ADDQ    $16, SI
	DECQ    CX
	JNZ     sqdev
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// func gradSums8AVX2(dy, xhat *float32, ld int, gamma *float32, n int, st *[16]float64)
//
// st[i] = s = Σ d and st[8+i] = t = Σ d·xhat[i*ld + c] over c in
// [0, n), from +0, with d = float64(dy[i*ld + c])·float64(gamma[c])
// (exact) and d·xhat rounded before its add. gamma[c] is broadcast
// to the four lanes from its widened block with VPERMPD.
TEXT ·gradSums8AVX2(SB), NOSPLIT, $0-48
	MOVQ   dy+0(FP), SI
	MOVQ   xhat+8(FP), DI
	MOVQ   ld+16(FP), R9
	MOVQ   gamma+24(FP), DX
	MOVQ   n+32(FP), CX
	ROWSTRIDES
	SHRQ   $2, CX
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
grad:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD (SI)(R9*1), Y1
	VCVTPS2PD (SI)(R9*2), Y2
	VCVTPS2PD (SI)(R10*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VCVTPS2PD (DI), Y4
	VCVTPS2PD (DI)(R9*1), Y5
	VCVTPS2PD (DI)(R9*2), Y6
	VCVTPS2PD (DI)(R10*1), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VCVTPS2PD (DX), Y8
	VPERMPD $0x00, Y8, Y9
	VMULPD  Y9, Y0, Y10
	VADDPD  Y10, Y12, Y12
	VMULPD  Y4, Y10, Y10
	VADDPD  Y10, Y14, Y14
	VPERMPD $0x55, Y8, Y9
	VMULPD  Y9, Y1, Y10
	VADDPD  Y10, Y12, Y12
	VMULPD  Y5, Y10, Y10
	VADDPD  Y10, Y14, Y14
	VPERMPD $0xAA, Y8, Y9
	VMULPD  Y9, Y2, Y10
	VADDPD  Y10, Y12, Y12
	VMULPD  Y6, Y10, Y10
	VADDPD  Y10, Y14, Y14
	VPERMPD $0xFF, Y8, Y9
	VMULPD  Y9, Y3, Y10
	VADDPD  Y10, Y12, Y12
	VMULPD  Y7, Y10, Y10
	VADDPD  Y10, Y14, Y14
	VCVTPS2PD (SI)(R9*4), Y0
	VCVTPS2PD (SI)(R11*1), Y1
	VCVTPS2PD (SI)(R10*2), Y2
	VCVTPS2PD (SI)(R12*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VCVTPS2PD (DI)(R9*4), Y4
	VCVTPS2PD (DI)(R11*1), Y5
	VCVTPS2PD (DI)(R10*2), Y6
	VCVTPS2PD (DI)(R12*1), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VCVTPS2PD (DX), Y8
	VPERMPD $0x00, Y8, Y9
	VMULPD  Y9, Y0, Y10
	VADDPD  Y10, Y13, Y13
	VMULPD  Y4, Y10, Y10
	VADDPD  Y10, Y15, Y15
	VPERMPD $0x55, Y8, Y9
	VMULPD  Y9, Y1, Y10
	VADDPD  Y10, Y13, Y13
	VMULPD  Y5, Y10, Y10
	VADDPD  Y10, Y15, Y15
	VPERMPD $0xAA, Y8, Y9
	VMULPD  Y9, Y2, Y10
	VADDPD  Y10, Y13, Y13
	VMULPD  Y6, Y10, Y10
	VADDPD  Y10, Y15, Y15
	VPERMPD $0xFF, Y8, Y9
	VMULPD  Y9, Y3, Y10
	VADDPD  Y10, Y13, Y13
	VMULPD  Y7, Y10, Y10
	VADDPD  Y10, Y15, Y15
	ADDQ    $16, SI
	ADDQ    $16, DI
	ADDQ    $16, DX
	DECQ    CX
	JNZ     grad
	MOVQ    st+40(FP), DI
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VMOVUPD Y14, 64(DI)
	VMOVUPD Y15, 96(DI)
	VZEROUPPER
	RET
