package tensor

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrAlias is returned (wrapped) by the matmul entry points when dst
// shares backing memory with an operand: the kernels store finished
// tiles of dst while later tiles still read a and b.
var ErrAlias = errors.New("tensor: dst aliases an operand")

// All the matmul variants are thin drivers over one micro-kernel,
// tile, which updates a block of up to blockRows() x blockCols()
// elements of dst with one accumulator per output element fed in
// ascending p, one fused multiply-add (a·b + acc, rounded once) per
// step — the
// sequence of the naive loop over an exact fma, so the bits match it
// exactly.
// Work is partitioned by output row, so any parallel split is
// bit-identical to the serial kernel too.
const (
	tileRows     = 4  // the AVX2 and portable tiles
	tileCols     = 16 // the AVX2 tile; the portable one takes any width
	wideTileRows = 8  // the AVX-512 tile
	wideTileCols = 32
	// packK is how many reduction steps of bᵀ MatMulT packs at a time:
	// a packK x wideTileCols panel is 16 KiB of stack and stays in L1.
	packK = 128
)

// MatMul computes dst = a @ b for rank-2 tensors: a is (m,k), b is
// (k,n), dst is (m,n). dst must not alias a or b (ErrAlias); its
// previous contents are ignored.
func MatMul(dst, a, b *Tensor) error {
	m, k, n, err := matmulArgs("matmul", dst, a, b, false, false)
	if err != nil {
		return err
	}
	matmul(dst.data, a.data, b.data, nil, m, k, n, n, k, 1, n, false, true)
	return nil
}

// MatMulBias computes dst = a @ b + bias, bias (n) added to every row:
// the forward of a linear layer. Each element is its finished sum plus
// bias[c], two roundings in that order, exactly what MatMul followed by
// a separate add loop computes; the tile adds the bias to its
// accumulators before it stores them, so dst is written once. A nil
// bias makes it MatMul. dst must not alias a, b or bias (ErrAlias).
func MatMulBias(dst, a, b, bias *Tensor) error {
	m, k, n, err := matmulArgs("matmulBias", dst, a, b, false, false)
	if err != nil {
		return err
	}
	var bd []float32
	if bias != nil {
		if len(bias.shape) != 1 || bias.shape[0] != n {
			return fmt.Errorf("%w: matmulBias bias %v for %v", ErrShape, bias.shape, dst.shape)
		}
		if overlaps(dst.data, bias.data) {
			return fmt.Errorf("%w: matmulBias", ErrAlias)
		}
		bd = bias.data
	}
	matmul(dst.data, a.data, b.data, bd, m, k, n, n, k, 1, n, false, true)
	return nil
}

// MatMulTAccum computes dst += aᵀ @ b: a is (k,m), b is (k,n), dst is
// (m,n). This is the weight-gradient kernel of a linear layer
// (dW += xᵀ @ dy) without materializing xᵀ: the tile just walks a with
// the row and reduction strides swapped.
func MatMulTAccum(dst, a, b *Tensor) error {
	m, k, n, err := matmulArgs("matmulTAccum", dst, a, b, true, false)
	if err != nil {
		return err
	}
	matmul(dst.data, a.data, b.data, nil, m, k, n, n, 1, m, n, false, false)
	return nil
}

// MatMulT computes dst = a @ bᵀ: a is (m,k), b is (n,k), dst is (m,n).
// This avoids materializing the transpose, which the backward pass of a
// linear layer would otherwise do on every step.
func MatMulT(dst, a, b *Tensor) error {
	m, k, n, err := matmulArgs("matmulT", dst, a, b, false, true)
	if err != nil {
		return err
	}
	matmul(dst.data, a.data, b.data, nil, m, k, n, n, k, 1, k, true, true)
	return nil
}

// matmulArgs validates dst(m,n) = op(a) @ op(b), where aT / bT say
// which operand is stored transposed, and returns the dimensions.
func matmulArgs(op string, dst, a, b *Tensor, aT, bT bool) (m, k, n int, err error) {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return 0, 0, 0, fmt.Errorf("%w: %s requires rank-2 operands, got %v, %v -> %v",
			ErrShape, op, a.shape, b.shape, dst.shape)
	}
	m, k = a.shape[0], a.shape[1]
	if aT {
		m, k = k, m
	}
	k2, n := b.shape[0], b.shape[1]
	if bT {
		k2, n = n, k2
	}
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return 0, 0, 0, fmt.Errorf("%w: %s %v, %v -> %v", ErrShape, op, a.shape, b.shape, dst.shape)
	}
	if overlaps(dst.data, a.data) || overlaps(dst.data, b.data) {
		return 0, 0, 0, fmt.Errorf("%w: %s", ErrAlias, op)
	}
	return m, k, n, nil
}

// overlaps reports whether x and y share any backing memory.
func overlaps(x, y []float32) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0, y0 := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return x0 < y0+4*uintptr(len(y)) && y0 < x0+4*uintptr(len(x))
}

// matmul fans matmulRange out over the output rows, each k·n
// multiply-adds of work. Row i of dst starts at dst[i*ldd]; ars, aps
// and ldb are a's and b's strides (matmulRange). bias, when non-nil,
// is added to every row of the result; only the zero-mode a @ b passes
// one.
func matmul(dst, a, b, bias []float32, m, k, n, ldd, ars, aps, ldb int, bT, zero bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for r := 0; r < m; r++ {
			row := dst[r*ldd:][:n]
			if zero {
				clear(row)
			}
			if bias != nil {
				addRange(row, row, bias)
			}
		}
		return
	}
	if serialFor(m, k*n) {
		matmulRange(dst, a, b, bias, 0, m, k, n, ldd, ars, aps, ldb, bT, zero)
		return
	}
	ParallelFor(m, k*n, func(lo, hi int) {
		matmulRange(dst, a, b, bias, lo, hi, k, n, ldd, ars, aps, ldb, bT, zero)
	})
}

// matmulRange computes output rows [rowLo, rowHi) of dst (+)= A @ B
// with A[i][p] = a[i*ars+p*aps]: strides (lda,1) read a row-major,
// (1,lda) read it transposed. B[p][j] is b[p*ldb+j], or b[j*ldb+p]
// when bT is set (which reads a row-major: aps is 1), and dst's rows
// are ldd apart. Column panels blockCols() wide are the outer loop so
// the strip of b a panel reads stays cached across its row tiles.
// matmulRange does not cut k, so every tile it runs holds finished sums
// and can add the bias to them.
func matmulRange(dst, a, b, bias []float32, rowLo, rowHi, k, n, ldd, ars, aps, ldb int, bT, zero bool) {
	if bT {
		matmulTRange(dst, a, b, rowLo, rowHi, k, n, ldd, ars, ldb, zero)
		return
	}
	rb, cb := blockRows(), blockCols()
	for j := 0; j < n; j += cb {
		cols := min(cb, n-j)
		var bj []float32
		if bias != nil {
			bj = bias[j:]
		}
		for i := rowLo; i < rowHi; i += rb {
			tile(dst[i*ldd+j:], ldd, a[i*ars:], ars, aps, b[j:], ldb, k, min(rb, rowHi-i), cols, zero, bj)
		}
	}
}

// blockRows and blockCols are the block the drivers hand tile at a
// time: the shape of the widest tile the CPU runs.
func blockRows() int {
	if haveAVX512 {
		return wideTileRows
	}
	return tileRows
}

func blockCols() int {
	if haveAVX512 {
		return wideTileCols
	}
	return tileCols
}

// matmulTRange computes output rows [rowLo, rowHi) of dst (+)= a @ bᵀ,
// a's rows lda apart, b's ldb and dst's ldd. The vector lanes of a
// tile are consecutive j, which in b are ldb floats apart, so each
// column panel of bᵀ is first packed into a contiguous packK x
// blockCols() buffer and every row tile then runs against the packed
// copy. k is cut into packK blocks; between blocks the partial sums
// round-trip through dst, and a float32 store/load is lossless, so each
// element is still one accumulator in ascending p.
//
// The panel lives on the stack of the goroutine that fills it and
// starts at a 64-byte boundary, so each vector load of a panel row
// reads one cache line; Go moves a goroutine's stack only by multiples
// of its power-of-two size, which keeps that alignment. With the
// assembly tiles it is withPanel's frame, which nobody clears: packT
// writes every float a tile reads, so the 16 KiB memset Go gives a
// local array on every call would be pure cost. The portable tier
// keeps a Go array as wide as its tile.
func matmulTRange(dst, a, b []float32, rowLo, rowHi, k, n, ldd, lda, ldb int, zero bool) {
	j := panelJob{dst, a, b, rowLo, rowHi, k, n, ldd, lda, ldb, zero}
	if haveAVX2 {
		withPanel(&j)
	} else {
		panelOnStack(&j)
	}
}

// panelJob is one matmulTRange call, handed to runPanelJob through the
// frame that holds its panel.
type panelJob struct {
	dst, a, b                         []float32
	rowLo, rowHi, k, n, ldd, lda, ldb int
	zero                              bool
}

// panelFloats is withPanel's panel: packK rows as wide as the widest
// tile, and the room to start at a 64-byte boundary.
const panelFloats = packK*wideTileCols + 16

// runPanelJob is matmulTRange's body on a given panel.
func runPanelJob(j *panelJob, panel []float32) {
	matmulTPanels(j.dst, j.a, j.b, aligned(panel), j.rowLo, j.rowHi, j.k, j.n, j.ldd, j.lda, j.ldb, j.zero)
}

// panelOnStack is withPanel for the portable tier, whose tile is
// tileCols wide.
//
//go:noinline
func panelOnStack(j *panelJob) {
	var buf [packK*tileCols + 16]float32
	runPanelJob(j, buf[:])
}

// matmulTPanels is matmulTRange's loop over the column panels, packing
// each into panel.
func matmulTPanels(dst, a, b, panel []float32, rowLo, rowHi, k, n, ldd, lda, ldb int, zero bool) {
	rb, cb := blockRows(), blockCols()
	for j := 0; j < n; j += cb {
		cols := min(cb, n-j)
		for p := 0; p < k; p += packK {
			kb := min(packK, k-p)
			packT(panel, cb, b[j*ldb+p:], ldb, kb, cols)
			for i := rowLo; i < rowHi; i += rb {
				tile(dst[i*ldd+j:], ldd, a[i*lda+p:], lda, 1, panel, cb, kb, min(rb, rowHi-i), cols, zero && p == 0, nil)
			}
		}
	}
}

// aligned returns buf from its first 64-byte boundary on.
func aligned(buf []float32) []float32 {
	return buf[(-uintptr(unsafe.Pointer(&buf[0]))&63)/4:]
}

// packT fills the first kb rows of panel, ldp floats apart, with the
// transpose of a cols x kb block of b (row stride k):
// panel[p*ldp+c] = b[c*k+p]. Whole 8x8 blocks go through the AVX2
// shuffle transpose when the CPU has it and the edges through the
// scalar loop; it is a copy either way.
func packT(panel []float32, ldp int, b []float32, k, kb, cols int) {
	vecP, vecC := 0, 0 // the assembly fills panel[:vecP][:vecC]
	if haveAVX2 && kb >= 8 && cols >= 8 {
		vecP, vecC = kb&^7, cols&^7
		// The bounds checks the assembly cannot make.
		_ = panel[(vecP-1)*ldp+vecC-1]
		_ = b[(vecC-1)*k+vecP-1]
		for c := 0; c < vecC; c += 8 {
			packT8AVX2(&panel[c], &b[c*k], k, ldp, vecP/8)
		}
	}
	if vecC < cols { // the columns right of the blocks
		packTRows(panel, ldp, b, k, 0, vecP, vecC, cols)
	}
	packTRows(panel, ldp, b, k, vecP, kb, 0, cols) // the rows below them
}

// packTRows is packT's scalar loop over panel rows [pLo, pHi), columns
// [cLo, cols). A function of its own so the copy loop gets registers to
// itself.
//
//go:noinline
func packTRows(panel []float32, ldp int, b []float32, k, pLo, pHi, cLo, cols int) {
	b = b[cLo*k:]
	for p := pLo; p < pHi; p++ {
		row := panel[p*ldp:][cLo:cols]
		for c := range row {
			row[c] = b[c*k+p]
		}
	}
}

// tile updates the rows x cols block at d (row stride ldd):
//
//	d[r][c] (+)= sum over p in [0,k) of a[r*ars+p*aps] * b[p*ldb+c]  (+ bias[c])
//
// zero starts each sum at +0 instead of d's previous value; a non-nil
// bias is added to each finished sum before it is stored. cols is at
// most blockCols(). An 8-row block goes to the AVX-512 tile when the
// CPU has it; otherwise the first four rows go to the AVX2 tile, sixteen
// columns at a time, when the CPU has that, and the rest to tileGo.
// All three produce the same bits. k must be >= 1.
func tile(d []float32, ldd int, a []float32, ars, aps int, b []float32, ldb, k, rows, cols int, zero bool, bias []float32) {
	// The bounds checks on b and bias the assembly cannot make.
	_ = b[(k-1)*ldb+cols-1]
	var bp *float32
	if bias != nil {
		bp = &bias[:cols][0]
	}
	if haveAVX512 && rows == wideTileRows {
		_ = d[(wideTileRows-1)*ldd+cols-1]
		_ = a[(wideTileRows-1)*ars+(k-1)*aps]
		tileAVX512(&d[0], ldd, &a[0], ars, aps, &b[0], ldb, k, cols, zero, bp)
		return
	}
	if haveAVX2 && rows >= tileRows {
		_ = d[(tileRows-1)*ldd+cols-1]
		_ = a[(tileRows-1)*ars+(k-1)*aps]
		c := min(cols, tileCols)
		tileAVX2(&d[0], ldd, &a[0], ars, aps, &b[0], ldb, k, c, zero, bp)
		if c < cols { // the right half of a 32-wide block
			if bias != nil {
				bp = &bias[c]
			}
			tileAVX2(&d[c], ldd, &a[0], ars, aps, &b[c], ldb, k, cols-c, zero, bp)
		}
		if rows == tileRows {
			return
		}
		d, a, rows = d[tileRows*ldd:], a[tileRows*ars:], rows-tileRows
	}
	tileGo(d, ldd, a, ars, aps, b, ldb, k, rows, cols, zero, bias)
}

// tileGo is the portable tile. Per element the reduction runs in
// strictly ascending p through a single accumulator, and each step is
// one multiply-add rounded once to float32 — the VFMADD231PS of the
// assembly tiles — so which tile ran does not show in the bits. The
// product of two float32 values is exact in float64, so the float64
// sum s = a·b + c is the true result rounded once; converting s to
// float32 rounds a second time, and that differs from a single
// rounding only where roundsTwice says, which fma32Exact handles. The
// explicit float64 conversion of each product keeps a compiler that
// fuses multiply-adds (arm64 does) from emitting one. The rare path
// loads its operands again instead of keeping them live, so each
// loaded float32 widens in place: CVTSS2SD into another register would
// wait on that register's last writer, the previous element's result.
// In the four-row body the rows share each load of b; the bias, if
// any, is added to each finished sum, as the assembly tiles add it
// before their store.
func tileGo(d []float32, ldd int, a []float32, ars, aps int, b []float32, ldb, k, rows, cols int, zero bool, bias []float32) {
	if zero {
		for r := 0; r < rows; r++ {
			clear(d[r*ldd:][:cols])
		}
	}
	for p := 0; p < k; p++ {
		bp := b[p*ldb:][:cols]
		r := 0
		if rows == tileRows {
			r = tileRows
			d0, d1, d2, d3 := d[:cols], d[ldd:][:cols], d[2*ldd:][:cols], d[3*ldd:][:cols]
			a0, a1, a2, a3 := a[p*aps], a[ars+p*aps], a[2*ars+p*aps], a[3*ars+p*aps]
			f0, f1, f2, f3 := float64(a0), float64(a1), float64(a2), float64(a3)
			for j := range bp {
				bf := float64(bp[j])
				s0 := float64(f0*bf) + float64(d0[j])
				s1 := float64(f1*bf) + float64(d1[j])
				s2 := float64(f2*bf) + float64(d2[j])
				s3 := float64(f3*bf) + float64(d3[j])
				if roundsTwice(s0) {
					s0 = float64(fma32Exact(a0, bp[j], d0[j]))
				}
				if roundsTwice(s1) {
					s1 = float64(fma32Exact(a1, bp[j], d1[j]))
				}
				if roundsTwice(s2) {
					s2 = float64(fma32Exact(a2, bp[j], d2[j]))
				}
				if roundsTwice(s3) {
					s3 = float64(fma32Exact(a3, bp[j], d3[j]))
				}
				d0[j], d1[j], d2[j], d3[j] = float32(s0), float32(s1), float32(s2), float32(s3)
			}
		}
		for ; r < rows; r++ {
			dr := d[r*ldd:][:cols]
			av := a[r*ars+p*aps]
			af := float64(av)
			for j := range dr {
				s := float64(af*float64(bp[j])) + float64(dr[j])
				if roundsTwice(s) {
					s = float64(fma32Exact(av, bp[j], dr[j]))
				}
				dr[j] = float32(s)
			}
		}
	}
	if bias != nil {
		bias = bias[:cols]
		for r := 0; r < rows; r++ {
			dr := d[r*ldd:][:cols]
			for j, bv := range bias {
				dr[j] += bv
			}
		}
	}
}

// roundsTwice reports whether converting s, a float64 sum of a float32
// product and a float32, to float32 can round differently from
// rounding the true sum once. The float64 rounding of the sum can only
// move it across a float32 halfway point by landing exactly on one:
// for a normal float32 result that is s's 29 low mantissa bits reading
// 1<<28. Below the float32 normal range the halfway points have other
// patterns (±0 included), and a non-finite s comes from a non-finite
// operand; all three go to fma32Exact. One unsigned compare covers
// both exponent ranges. Small enough to inline, so the common case is
// two integer tests in the loop.
func roundsTwice(s float64) bool {
	u := math.Float64bits(s)
	return u&(1<<29-1) == 1<<28 || u>>52&0x7ff-(1023-126) >= 0x7ff-(1023-126)
}

// fma32Exact returns a·b + c rounded once to float32 for any inputs,
// without a fused instruction. It rounds the exact sum p + c of the
// float64 product p to odd in float64 — the rounded sum s, moved one
// unit in the last place toward the true sum when s is inexact and its
// last mantissa bit is even — and then to nearest float32: rounding to
// odd with at least two more bits than the target cannot create a tie
// the true sum does not have, so the one conversion rounds correctly.
// s's rounding error e comes from TwoSum and is exact: p and c are
// zero or at least 2⁻²⁹⁸ in magnitude, far above float64's subnormals,
// and their sum cannot overflow float64. Rounding to odd is truncating
// toward zero and setting the last bit; the truncation is s when e has
// s's sign and s one unit nearer zero when it does not.
//
//go:noinline
func fma32Exact(a, b, c float32) float32 {
	p, q := float64(float64(a)*float64(b)), float64(c)
	s := p + q
	bq := s - p
	e := (p - (s - bq)) + (q - bq)
	if e != 0 && e == e { // inexact and finite: a non-finite s converts as IEEE says
		u := math.Float64bits(s)
		if (e < 0) != (s < 0) {
			u--
		}
		s = math.Float64frombits(u | 1)
	}
	return float32(s)
}
