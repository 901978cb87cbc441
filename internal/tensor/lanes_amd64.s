//go:build amd64 && !purego

#include "textflag.h"

// The lane kernels with no exp in them: the residual adds, AXPY and
// Scale, and LayerNorm's per-element passes (docs/NUMERICS.md). The
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
