//go:build amd64 && !purego

#include "textflag.h"

// ADAM: g in X0, m in X1, v in X2, p in X6, the scalars in X8-X11 and
// Y12-Y15; leaves the new m in X1, v in X2 and p in X6. Clobbers X3-X5.
#define ADAM \
	VMULPS     X8, X1, X1    \
	VMULPS     X10, X0, X3   \
	VADDPS     X3, X1, X1    \
	VMULPS     X9, X2, X2    \
	VMULPS     X11, X0, X3   \
	VMULPS     X0, X3, X3    \
	VADDPS     X3, X2, X2    \
	VCVTPS2PD  X1, Y4        \
	VDIVPD     Y12, Y4, Y4   \
	VCVTPS2PD  X2, Y5        \
	VDIVPD     Y13, Y5, Y5   \
	VSQRTPD    Y5, Y5        \
	VADDPD     Y15, Y5, Y5   \
	VMULPD     Y14, Y4, Y4   \
	VDIVPD     Y5, Y4, Y4    \
	VCVTPD2PSY Y4, X4        \
	VSUBPS     X4, X6, X6

// func adamAVX2(p, gr, m, v *float32, n int, k *adamK)
//
// adamRange's loop four elements at a time (docs/NUMERICS.md, "Adam").
// The moment updates run on four float32 lanes (VMULPS, then VADDPS,
// each product rounded first, as the Go code rounds it); the moments
// then widen to four float64 lanes (VCVTPS2PD) for the two bias
// corrections (VDIVPD), the square root (VSQRTPD), eps, the learning
// rate and the quotient, and the update narrows back (VCVTPD2PS) under
// MXCSR's round-to-nearest, as Go's float32 conversion does. Every
// instruction is correctly rounded, so each lane's bits are the loop's.
// A remainder of 1..3 elements runs under a lane mask (·laneMask):
// masked-off lanes load as zero and are not stored. Requires n >= 1.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ gr+8(FP), DX
	MOVQ m+16(FP), BX
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), R8
	VBROADCASTSS 0(R8), X8     // b1
	VBROADCASTSS 4(R8), X9     // b2
	VBROADCASTSS 8(R8), X10    // 1-b1
	VBROADCASTSS 12(R8), X11   // 1-b2
	VBROADCASTSD 16(R8), Y12   // bc1
	VBROADCASTSD 24(R8), Y13   // bc2
	VBROADCASTSD 32(R8), Y14   // lr
	VBROADCASTSD 40(R8), Y15   // eps
	SUBQ $4, CX
	JLT  tail
loop:
	VMOVUPS (DX), X0
	VMOVUPS (BX), X1
	VMOVUPS (R9), X2
	VMOVUPS (DI), X6
	ADAM
	VMOVUPS X1, (BX)
	VMOVUPS X2, (R9)
	VMOVUPS X6, (DI)
	ADDQ $16, DX
	ADDQ $16, BX
	ADDQ $16, R9
	ADDQ $16, DI
	SUBQ $4, CX
	JGE  loop
tail:
	ADDQ $4, CX
	JZ   done
	LEAQ    ·laneMask+32(SB), AX
	SHLQ    $2, CX
	SUBQ    CX, AX
	VMOVDQU (AX), X7
	VMASKMOVPS (DX), X7, X0
	VMASKMOVPS (BX), X7, X1
	VMASKMOVPS (R9), X7, X2
	VMASKMOVPS (DI), X7, X6
	ADAM
	VMASKMOVPS X1, X7, (BX)
	VMASKMOVPS X2, X7, (R9)
	VMASKMOVPS X6, X7, (DI)
done:
	VZEROUPPER
	RET
