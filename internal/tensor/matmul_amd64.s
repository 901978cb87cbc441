//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
//
// The AVX2 tier needs four things: the CPU implements AVX2
// (CPUID.7.0:EBX[5]) and FMA (CPUID.1:ECX[12]), which its matmul tile
// issues, the CPU implements XSAVE/AVX and the OS has turned XSAVE on
// (CPUID.1:ECX[27,28]), and the OS saves the YMM halves across context
// switches (XCR0[1,2]). A CPU or VM that reports AVX2 without FMA runs
// the portable tier.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $(1<<12 | 1<<27 | 1<<28), CX
	CMPL CX, $(1<<12 | 1<<27 | 1<<28)
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

// func cpuHasAVX512() bool
//
// The AVX-512 tile needs the CPU to implement AVX512F
// (CPUID.7.0:EBX[16]), the OS to have turned XSAVE on (CPUID.1:ECX[27])
// and the OS to save the XMM, YMM, opmask and both halves of the ZMM
// state across context switches (XCR0[1,2,5,6,7], mask 0xE6).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $(1<<27), CX
	JZ   no
	MOVL $0, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	SHRL $16, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// One reduction step of one tile row: broadcast a[r][p] into av and
// fold its product with each of the two vectors of b[p] in b0 and b1
// into that row's accumulators, acc = a·b + acc rounded once
// (VFMADD231PS), which tileGo computes exactly without one. The AVX2
// tile runs it on YMM registers (b[p][0:16]), the AVX-512 tile's
// two-vector loop on ZMM ones (b[p][0:32]), where one broadcast for two
// FMAs measured ×1.15–1.25 faster than two FMAs that each broadcast
// from memory (.BCST). This macro and ROW16 hold
// the package's only fused multiply-adds (docs/NUMERICS.md rule 3).
#define ROW(aop, av, b0, b1, acc0, acc1) \
	VBROADCASTSS aop, av         \
	VFMADD231PS  b0, av, acc0    \
	VFMADD231PS  b1, av, acc1

// One reduction step of the whole tile, b[p][0:16] already in Y8/Y9;
// leaves the flags of the k countdown.
#define STEP \
	ROW((SI), Y10, Y8, Y9, Y0, Y1)        \
	ROW((SI)(R9*1), Y10, Y8, Y9, Y2, Y3)  \
	ROW((SI)(R9*2), Y10, Y8, Y9, Y4, Y5)  \
	ROW((SI)(R12*1), Y10, Y8, Y9, Y6, Y7) \
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

// func tileAVX2(d *float32, ldd int, a *float32, ars, aps int, b *float32, ldb, k, cols int, zero bool, bias *float32)
//
// Updates the 4 x cols tile at d (row stride ldd floats, 1 <= cols <= 16):
//
//	d[r][c] (+)= sum over p in [0,k) of a[r*ars + p*aps] * b[p*ldb + c]  (+ bias[c])
//
// with the eight accumulators (4 rows x 2 YMM) live in Y0-Y7 across the
// whole p loop. Each lane is one output element with one accumulator
// fed in ascending p, one fused multiply-add per step, so every element
// sees exactly tileGo's sequence. zero starts the accumulators at +0 instead of
// loading d. A non-nil bias is added to each finished accumulator
// before the store: the sum is rounded, then the bias add, as in
// `v += bias[c]` after the loop. Requires k >= 1.
TEXT ·tileAVX2(SB), NOSPLIT, $0-88
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
	MOVQ bias+80(FP), SI
	TESTQ SI, SI
	JZ   write
	VMASKMOVPS (SI), Y13, Y8
	VMASKMOVPS 32(SI), Y14, Y9
	VADDPS Y8, Y0, Y0
	VADDPS Y9, Y1, Y1
	VADDPS Y8, Y2, Y2
	VADDPS Y9, Y3, Y3
	VADDPS Y8, Y4, Y4
	VADDPS Y9, Y5, Y5
	VADDPS Y8, Y6, Y6
	VADDPS Y9, Y7, Y7
write:
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

// One reduction step of one row of the AVX-512 tile's one-vector loop:
// acc = b[p][0:16] (Z16) times a[r][p] broadcast from memory, plus acc,
// rounded once — ROW's fused multiply-add, sixteen lanes at a time.
// Here the broadcast rides in the FMA: a broadcast into a register
// first, as the two-vector loop does it with ROW, measured 5–10 %
// slower at rank 8.
#define ROW16(aop, acc) \
	VFMADD231PS.BCST aop, Z16, acc

// func tileAVX512(d *float32, ldd int, a *float32, ars, aps int, b *float32, ldb, k, cols int, zero bool, bias *float32)
//
// tileAVX2's contract, bias included, for an 8 x cols tile
// (1 <= cols <= 32): two ZMM accumulators per row, lanes 0-15 of row r
// in Z(r) and lanes 16-31 in Z(r+8), live across the whole p loop, each
// lane one output element summed in ascending p. Opmask K1 holds the
// first min(cols, 16) lanes and K2 the rest; masked-out lanes are
// neither loaded nor stored and cannot fault. When cols <= 16, K2 is
// empty and a one-vector loop runs on Z0-Z7 alone. Requires k >= 1.
TEXT ·tileAVX512(SB), NOSPLIT, $0-88
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ aps+32(FP), R10
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R11
	MOVQ cols+64(FP), CX
	MOVL $1, AX
	CMPQ CX, $16
	JLE  narrowmask
	SUBQ $16, CX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2               // lanes [16, cols)
	MOVL $0xffff, AX
	KMOVW AX, K1               // lanes [0, 16)
	JMP  masks
narrowmask:
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1               // lanes [0, cols)
	KXORW K2, K2, K2
masks:
	MOVQ k+56(FP), CX
	SHLQ $2, R8                // strides in bytes
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R9)(R9*2), R12       // 3*ars
	LEAQ (SI)(R9*4), R13       // &a[4][0]
	LEAQ (R8)(R8*2), AX        // 3*ldd
	LEAQ (DI)(R8*4), DX        // &d[4][0]

	CMPB zero+72(FP), $0
	JNE  clear
	VMOVUPS.Z (DI), K1, Z0
	VMOVUPS.Z (DI)(R8*1), K1, Z1
	VMOVUPS.Z (DI)(R8*2), K1, Z2
	VMOVUPS.Z (DI)(AX*1), K1, Z3
	VMOVUPS.Z (DX), K1, Z4
	VMOVUPS.Z (DX)(R8*1), K1, Z5
	VMOVUPS.Z (DX)(R8*2), K1, Z6
	VMOVUPS.Z (DX)(AX*1), K1, Z7
	KORTESTW K2, K2
	JZ   narrow
	VMOVUPS.Z 64(DI), K2, Z8
	VMOVUPS.Z 64(DI)(R8*1), K2, Z9
	VMOVUPS.Z 64(DI)(R8*2), K2, Z10
	VMOVUPS.Z 64(DI)(AX*1), K2, Z11
	VMOVUPS.Z 64(DX), K2, Z12
	VMOVUPS.Z 64(DX)(R8*1), K2, Z13
	VMOVUPS.Z 64(DX)(R8*2), K2, Z14
	VMOVUPS.Z 64(DX)(AX*1), K2, Z15
	JMP  wide
clear:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	KORTESTW K2, K2
	JZ   narrow
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

wide:
	VMOVUPS.Z (BX), K1, Z16
	VMOVUPS.Z 64(BX), K2, Z17
	ROW((SI), Z18, Z16, Z17, Z0, Z8)
	ROW((SI)(R9*1), Z19, Z16, Z17, Z1, Z9)
	ROW((SI)(R9*2), Z20, Z16, Z17, Z2, Z10)
	ROW((SI)(R12*1), Z21, Z16, Z17, Z3, Z11)
	ROW((R13), Z22, Z16, Z17, Z4, Z12)
	ROW((R13)(R9*1), Z23, Z16, Z17, Z5, Z13)
	ROW((R13)(R9*2), Z24, Z16, Z17, Z6, Z14)
	ROW((R13)(R12*1), Z25, Z16, Z17, Z7, Z15)
	ADDQ R10, SI
	ADDQ R10, R13
	ADDQ R11, BX
	DECQ CX
	JNZ  wide

	MOVQ bias+80(FP), SI
	TESTQ SI, SI
	JZ   widewrite
	VMOVUPS.Z (SI), K1, Z16
	VMOVUPS.Z 64(SI), K2, Z17
	VADDPS Z16, Z0, Z0
	VADDPS Z17, Z8, Z8
	VADDPS Z16, Z1, Z1
	VADDPS Z17, Z9, Z9
	VADDPS Z16, Z2, Z2
	VADDPS Z17, Z10, Z10
	VADDPS Z16, Z3, Z3
	VADDPS Z17, Z11, Z11
	VADDPS Z16, Z4, Z4
	VADDPS Z17, Z12, Z12
	VADDPS Z16, Z5, Z5
	VADDPS Z17, Z13, Z13
	VADDPS Z16, Z6, Z6
	VADDPS Z17, Z14, Z14
	VADDPS Z16, Z7, Z7
	VADDPS Z17, Z15, Z15
widewrite:
	VMOVUPS Z8, K2, 64(DI)
	VMOVUPS Z9, K2, 64(DI)(R8*1)
	VMOVUPS Z10, K2, 64(DI)(R8*2)
	VMOVUPS Z11, K2, 64(DI)(AX*1)
	VMOVUPS Z12, K2, 64(DX)
	VMOVUPS Z13, K2, 64(DX)(R8*1)
	VMOVUPS Z14, K2, 64(DX)(R8*2)
	VMOVUPS Z15, K2, 64(DX)(AX*1)
	JMP  write

narrow:
	VMOVUPS.Z (BX), K1, Z16
	ROW16((SI), Z0)
	ROW16((SI)(R9*1), Z1)
	ROW16((SI)(R9*2), Z2)
	ROW16((SI)(R12*1), Z3)
	ROW16((R13), Z4)
	ROW16((R13)(R9*1), Z5)
	ROW16((R13)(R9*2), Z6)
	ROW16((R13)(R12*1), Z7)
	ADDQ R10, SI
	ADDQ R10, R13
	ADDQ R11, BX
	DECQ CX
	JNZ  narrow

	MOVQ bias+80(FP), SI
	TESTQ SI, SI
	JZ   write
	VMOVUPS.Z (SI), K1, Z16
	VADDPS Z16, Z0, Z0
	VADDPS Z16, Z1, Z1
	VADDPS Z16, Z2, Z2
	VADDPS Z16, Z3, Z3
	VADDPS Z16, Z4, Z4
	VADDPS Z16, Z5, Z5
	VADDPS Z16, Z6, Z6
	VADDPS Z16, Z7, Z7
write:
	VMOVUPS Z0, K1, (DI)
	VMOVUPS Z1, K1, (DI)(R8*1)
	VMOVUPS Z2, K1, (DI)(R8*2)
	VMOVUPS Z3, K1, (DI)(AX*1)
	VMOVUPS Z4, K1, (DX)
	VMOVUPS Z5, K1, (DX)(R8*1)
	VMOVUPS Z6, K1, (DX)(R8*2)
	VMOVUPS Z7, K1, (DX)(AX*1)
	VZEROUPPER
	RET

// func packT8AVX2(panel, b *float32, k, ldp, blocks int)
//
// MatMulT's pack for eight columns of a panel: for q in [0, blocks) and
// i, c in [0, 8)
//
//	panel[(8q+i)*ldp + c] = b[c*k + 8q+i]
//
// i.e. each 8x8 block of b (eight rows k floats apart) is transposed
// into eight panel rows (ldp floats apart) with the usual three rounds
// of shuffles: unpack pairs of rows, shuffle pairs of pairs, swap
// 128-bit halves. Loads, shuffles and stores only; no value is computed.
TEXT ·packT8AVX2(SB), NOSPLIT, $0-40
	MOVQ panel+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ k+16(FP), R9
	MOVQ ldp+24(FP), R8
	MOVQ blocks+32(FP), CX
	SHLQ $2, R9                // row stride of b in bytes
	LEAQ (R9)(R9*2), R10       // 3 rows
	LEAQ (R9)(R9*4), R11       // 5 rows
	LEAQ (R10)(R9*4), R12      // 7 rows
	SHLQ $2, R8                // row stride of the panel in bytes
	LEAQ (R8)(R8*2), AX        // 3 panel rows
	LEAQ (R8)(R8*4), BX        // 5 panel rows
	LEAQ (AX)(R8*4), DX        // 7 panel rows
	MOVQ R8, R13
	SHLQ $3, R13               // 8 panel rows
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
	VMOVUPS Y9, (DI)(R8*1)
	VMOVUPS Y10, (DI)(R8*2)
	VMOVUPS Y11, (DI)(AX*1)
	VMOVUPS Y12, (DI)(R8*4)
	VMOVUPS Y13, (DI)(BX*1)
	VMOVUPS Y14, (DI)(AX*2)
	VMOVUPS Y15, (DI)(DX*1)
	ADDQ $32, SI
	ADDQ R13, DI
	DECQ CX
	JNZ  block
	VZEROUPPER
	RET
