//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 needs three things: the CPU implements it (CPUID.7.0:EBX[5]),
// the CPU implements XSAVE/AVX and the OS has turned XSAVE on
// (CPUID.1:ECX[27,28]), and the OS saves the YMM halves across context
// switches (XCR0[1,2]).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// One reduction step of one tile row: broadcast a[r][p], multiply it
// into the two halves of b[p][0:16], add each product to that row's
// accumulator. The product is rounded to float32 by VMULPS before
// VADDPS adds it — the same two roundings as the scalar `v += a*b` —
// which is what a fused multiply-add would not do.
#define ROW(aop, acc0, acc1) \
	VBROADCASTSS aop, Y10    \
	VMULPS       Y8, Y10, Y11 \
	VMULPS       Y9, Y10, Y12 \
	VADDPS       Y11, acc0, acc0 \
	VADDPS       Y12, acc1, acc1

// One reduction step of the whole tile, b[p][0:16] already in Y8/Y9;
// leaves the flags of the k countdown.
#define STEP \
	ROW((SI), Y0, Y1)        \
	ROW((SI)(R9*1), Y2, Y3)  \
	ROW((SI)(R9*2), Y4, Y5)  \
	ROW((SI)(R12*1), Y6, Y7) \
	ADDQ R10, SI             \
	ADDQ R11, BX             \
	DECQ CX

// Lane masks: sixteen all-ones words then sixteen zero words. The 16
// words starting at word 16-cols are the mask whose first cols lanes
// are set.
DATA tilemask<>+0(SB)/8, $0xffffffffffffffff
DATA tilemask<>+8(SB)/8, $0xffffffffffffffff
DATA tilemask<>+16(SB)/8, $0xffffffffffffffff
DATA tilemask<>+24(SB)/8, $0xffffffffffffffff
DATA tilemask<>+32(SB)/8, $0xffffffffffffffff
DATA tilemask<>+40(SB)/8, $0xffffffffffffffff
DATA tilemask<>+48(SB)/8, $0xffffffffffffffff
DATA tilemask<>+56(SB)/8, $0xffffffffffffffff
DATA tilemask<>+64(SB)/8, $0
DATA tilemask<>+72(SB)/8, $0
DATA tilemask<>+80(SB)/8, $0
DATA tilemask<>+88(SB)/8, $0
DATA tilemask<>+96(SB)/8, $0
DATA tilemask<>+104(SB)/8, $0
DATA tilemask<>+112(SB)/8, $0
DATA tilemask<>+120(SB)/8, $0
GLOBL tilemask<>(SB), RODATA|NOPTR, $128

// func tileAVX2(d *float32, ldd int, a *float32, ars, aps int, b *float32, ldb, k, cols int, zero bool)
//
// Updates the 4 x cols tile at d (row stride ldd floats, 1 <= cols <= 16):
//
//	d[r][c] (+)= sum over p in [0,k) of a[r*ars + p*aps] * b[p*ldb + c]
//
// with the eight accumulators (4 rows x 2 YMM) live in Y0-Y7 across the
// whole p loop. Each lane is one output element with one accumulator
// summed in ascending p, so every element sees exactly the add sequence
// of the scalar loop. zero starts the accumulators at +0 instead of
// loading d. Requires k >= 1.
TEXT ·tileAVX2(SB), NOSPLIT, $0-73
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ aps+32(FP), R10
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R11
	MOVQ k+56(FP), CX
	SHLQ $2, R8                // strides in bytes
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R9)(R9*2), R12       // 3*ars
	LEAQ (DI)(R8*2), DX        // &d[2][0]

	MOVQ cols+64(FP), AX
	SHLQ $2, AX
	LEAQ tilemask<>+64(SB), R13
	SUBQ AX, R13
	VMOVDQU (R13), Y13         // lanes 0-7
	VMOVDQU 32(R13), Y14       // lanes 8-15

	CMPB zero+72(FP), $0
	JNE  clear
	VMASKMOVPS (DI), Y13, Y0
	VMASKMOVPS 32(DI), Y14, Y1
	VMASKMOVPS (DI)(R8*1), Y13, Y2
	VMASKMOVPS 32(DI)(R8*1), Y14, Y3
	VMASKMOVPS (DX), Y13, Y4
	VMASKMOVPS 32(DX), Y14, Y5
	VMASKMOVPS (DX)(R8*1), Y13, Y6
	VMASKMOVPS 32(DX)(R8*1), Y14, Y7
	JMP  steps
clear:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

steps:
	CMPQ AX, $64               // all sixteen lanes: plain loads
	JEQ  full
masked:
	VMASKMOVPS (BX), Y13, Y8
	VMASKMOVPS 32(BX), Y14, Y9
	STEP
	JNZ  masked
	JMP  store
full:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	STEP
	JNZ  full

store:
	VMASKMOVPS Y0, Y13, (DI)
	VMASKMOVPS Y1, Y14, 32(DI)
	VMASKMOVPS Y2, Y13, (DI)(R8*1)
	VMASKMOVPS Y3, Y14, 32(DI)(R8*1)
	VMASKMOVPS Y4, Y13, (DX)
	VMASKMOVPS Y5, Y14, 32(DX)
	VMASKMOVPS Y6, Y13, (DX)(R8*1)
	VMASKMOVPS Y7, Y14, 32(DX)(R8*1)
	VZEROUPPER
	RET

// func packT8AVX2(panel, b *float32, k, blocks int)
//
// MatMulT's pack for eight columns of a panel: for q in [0, blocks) and
// i, c in [0, 8)
//
//	panel[(8q+i)*16 + c] = b[c*k + 8q+i]
//
// i.e. each 8x8 block of b (eight rows k floats apart) is transposed
// into eight panel rows (16 floats apart) with the usual three rounds
// of shuffles: unpack pairs of rows, shuffle pairs of pairs, swap
// 128-bit halves. Loads, shuffles and stores only; no value is computed.
TEXT ·packT8AVX2(SB), NOSPLIT, $0-32
	MOVQ panel+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ k+16(FP), R9
	MOVQ blocks+24(FP), CX
	SHLQ $2, R9                // row stride of b in bytes
	LEAQ (R9)(R9*2), R10       // 3 rows
	LEAQ (R9)(R9*4), R11       // 5 rows
	LEAQ (R10)(R9*4), R12      // 7 rows
block:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R9*1), Y1
	VMOVUPS (SI)(R9*2), Y2
	VMOVUPS (SI)(R10*1), Y3
	VMOVUPS (SI)(R9*4), Y4
	VMOVUPS (SI)(R11*1), Y5
	VMOVUPS (SI)(R10*2), Y6
	VMOVUPS (SI)(R12*1), Y7
	VUNPCKLPS Y1, Y0, Y8       // r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] r0[5] r1[5]
	VUNPCKHPS Y1, Y0, Y9       // r0[2] r1[2] r0[3] r1[3] | r0[6] ...
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0   // r0..r3 [0] | [4]
	VSHUFPS $0xEE, Y10, Y8, Y1   // r0..r3 [1] | [5]
	VSHUFPS $0x44, Y11, Y9, Y2   // r0..r3 [2] | [6]
	VSHUFPS $0xEE, Y11, Y9, Y3   // r0..r3 [3] | [7]
	VSHUFPS $0x44, Y14, Y12, Y4  // r4..r7 [0] | [4]
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8   // r0..r7 [0]
	VPERM2F128 $0x20, Y5, Y1, Y9   // [1]
	VPERM2F128 $0x20, Y6, Y2, Y10  // [2]
	VPERM2F128 $0x20, Y7, Y3, Y11  // [3]
	VPERM2F128 $0x31, Y4, Y0, Y12  // [4]
	VPERM2F128 $0x31, Y5, Y1, Y13  // [5]
	VPERM2F128 $0x31, Y6, Y2, Y14  // [6]
	VPERM2F128 $0x31, Y7, Y3, Y15  // [7]
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 64(DI)
	VMOVUPS Y10, 128(DI)
	VMOVUPS Y11, 192(DI)
	VMOVUPS Y12, 256(DI)
	VMOVUPS Y13, 320(DI)
	VMOVUPS Y14, 384(DI)
	VMOVUPS Y15, 448(DI)
	ADDQ $32, SI
	ADDQ $512, DI
	DECQ CX
	JNZ  block
	VZEROUPPER
	RET
