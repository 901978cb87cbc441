package tensor

import (
	"errors"
	"fmt"
	"unsafe"
)

// ErrAlias is returned (wrapped) by the matmul entry points when dst
// shares backing memory with an operand: the kernels store finished
// tiles of dst while later tiles still read a and b.
var ErrAlias = errors.New("tensor: dst aliases an operand")

// All the matmul variants are thin drivers over one micro-kernel,
// tile, which updates a block of up to blockRows() x tileCols elements
// of dst with one accumulator per output element summed in ascending
// p — the add sequence of the naive loop, so the bits match it exactly.
// Work is partitioned by output row, so any parallel split is
// bit-identical to the serial kernel too.
const (
	tileRows     = 4 // the AVX2 and portable tiles
	wideTileRows = 8 // the AVX-512 tile
	tileCols     = 16
	// packK is how many reduction steps of bᵀ MatMulT packs at a time:
	// a packK x tileCols panel is 8 KiB of stack and stays in L1.
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
	matmul(dst.data, a.data, b.data, nil, m, k, n, k, 1, false, true)
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
	matmul(dst.data, a.data, b.data, bd, m, k, n, k, 1, false, true)
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
	matmul(dst.data, a.data, b.data, nil, m, k, n, 1, m, false, false)
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
	matmul(dst.data, a.data, b.data, nil, m, k, n, k, 1, true, true)
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
// multiply-adds of work. bias, when non-nil, is added to every row of
// the result; only the zero-mode a @ b passes one.
func matmul(dst, a, b, bias []float32, m, k, n, ars, aps int, bT, zero bool) {
	if k == 0 {
		if zero {
			clear(dst)
		}
		for r := 0; bias != nil && r < m; r++ {
			addRange(dst[r*n:][:n], dst[r*n:][:n], bias)
		}
		return
	}
	if serialFor(m, k*n) {
		matmulRange(dst, a, b, bias, 0, m, k, n, ars, aps, bT, zero)
		return
	}
	ParallelFor(m, k*n, func(lo, hi int) {
		matmulRange(dst, a, b, bias, lo, hi, k, n, ars, aps, bT, zero)
	})
}

// matmulRange computes output rows [rowLo, rowHi) of dst (+)= A @ B
// with A[i][p] = a[i*ars+p*aps]: strides (k,1) read a row-major,
// (1,m) read it transposed. B is b, or bᵀ when bT is set. Column panels
// are the outer loop so the sixteen-wide strip of b a panel reads stays
// cached across its row tiles. matmulRange does not cut k, so every
// tile it runs holds finished sums and can add the bias to them.
func matmulRange(dst, a, b, bias []float32, rowLo, rowHi, k, n, ars, aps int, bT, zero bool) {
	if bT {
		matmulTRange(dst, a, b, rowLo, rowHi, k, n)
		return
	}
	rb := blockRows()
	for j := 0; j < n; j += tileCols {
		cols := min(tileCols, n-j)
		var bj []float32
		if bias != nil {
			bj = bias[j:]
		}
		for i := rowLo; i < rowHi; i += rb {
			tile(dst[i*n+j:], n, a[i*ars:], ars, aps, b[j:], n, k, min(rb, rowHi-i), cols, zero, bj)
		}
	}
}

// blockRows is how many rows the drivers hand tile at a time: the
// height of the widest tile the CPU runs.
func blockRows() int {
	if haveAVX512 {
		return wideTileRows
	}
	return tileRows
}

// matmulTRange computes output rows [rowLo, rowHi) of dst = a @ bᵀ.
// The vector lanes of a tile are sixteen consecutive j, which in b are
// k floats apart, so each column panel of bᵀ is first packed into a
// contiguous packK x tileCols buffer and every row tile then runs
// against the packed copy. k is cut into packK blocks; between blocks
// the partial sums round-trip through dst, and a float32 store/load is
// lossless, so each element is still one accumulator in ascending p.
func matmulTRange(dst, a, b []float32, rowLo, rowHi, k, n int) {
	var panel [packK * tileCols]float32
	rb := blockRows()
	for j := 0; j < n; j += tileCols {
		cols := min(tileCols, n-j)
		for p := 0; p < k; p += packK {
			kb := min(packK, k-p)
			packT(&panel, b[j*k+p:], k, kb, cols)
			for i := rowLo; i < rowHi; i += rb {
				tile(dst[i*n+j:], n, a[i*k+p:], k, 1, panel[:], tileCols, kb, min(rb, rowHi-i), cols, p == 0, nil)
			}
		}
	}
}

// packT fills the first kb rows of panel with the transpose of a
// cols x kb block of b (row stride k): panel[p][c] = b[c*k+p]. Whole
// 8x8 blocks go through the AVX2 shuffle transpose when the CPU has it
// and the edges through the scalar loop; it is a copy either way.
func packT(panel *[packK * tileCols]float32, b []float32, k, kb, cols int) {
	vecP, vecC := 0, 0 // the assembly fills panel[:vecP][:vecC]
	if haveAVX2 && kb >= 8 && cols >= 8 {
		vecP, vecC = kb&^7, cols&^7
		_ = b[(vecC-1)*k+vecP-1] // the bounds check the assembly cannot make
		for c := 0; c < vecC; c += 8 {
			packT8AVX2(&panel[c], &b[c*k], k, vecP/8)
		}
	}
	if vecC < cols { // the columns right of the blocks
		packTRows(panel, b, k, 0, vecP, vecC, cols)
	}
	packTRows(panel, b, k, vecP, kb, 0, cols) // the rows below them
}

// packTRows is packT's scalar loop over panel rows [pLo, pHi), columns
// [cLo, cols). A function of its own so the copy loop gets registers to
// itself.
//
//go:noinline
func packTRows(panel *[packK * tileCols]float32, b []float32, k, pLo, pHi, cLo, cols int) {
	b = b[cLo*k:]
	for p := pLo; p < pHi; p++ {
		row := panel[p*tileCols:][cLo:cols]
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
// bias is added to each finished sum before it is stored. An 8-row
// block goes to the AVX-512 tile when the CPU has it; otherwise the
// first four rows go to the AVX2 tile when the CPU has that, and the
// rest to tileGo. All three produce the same bits. k must be >= 1.
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
		tileAVX2(&d[0], ldd, &a[0], ars, aps, &b[0], ldb, k, cols, zero, bp)
		if rows == tileRows {
			return
		}
		d, a, rows = d[tileRows*ldd:], a[tileRows*ars:], rows-tileRows
	}
	tileGo(d, ldd, a, ars, aps, b, ldb, k, rows, cols, zero, bias)
}

// tileGo is the portable tile. Bit-identity discipline: per element
// the reduction runs in strictly ascending p through a single
// accumulator, every accumulation is its own `v += a*b` statement (a
// combined `v += a0*b0 + a1*b1` re-associates the adds), and the
// float32 conversion rounds the product before the add, so a compiler
// that fuses multiply-adds (arm64 does) cannot: the assembly tile
// rounds twice, and which tile ran must not show in the bits. The
// four-wide p block and the four-row body only save loads and stores.
// The bias, if any, is added to each finished sum, as the assembly tiles
// add it before their store.
func tileGo(d []float32, ldd int, a []float32, ars, aps int, b []float32, ldb, k, rows, cols int, zero bool, bias []float32) {
	if zero {
		for r := 0; r < rows; r++ {
			clear(d[r*ldd:][:cols])
		}
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		b0 := b[(p+0)*ldb:][:cols]
		b1 := b[(p+1)*ldb:][:cols]
		b2 := b[(p+2)*ldb:][:cols]
		b3 := b[(p+3)*ldb:][:cols]
		r := 0
		if rows == tileRows { // four rows share each load of b
			r = tileRows
			d0, d1, d2, d3 := d[:cols], d[ldd:][:cols], d[2*ldd:][:cols], d[3*ldd:][:cols]
			a0, a1, a2, a3 := a[p*aps:], a[ars+p*aps:], a[2*ars+p*aps:], a[3*ars+p*aps:]
			a00, a01, a02, a03 := a0[0], a0[aps], a0[2*aps], a0[3*aps]
			a10, a11, a12, a13 := a1[0], a1[aps], a1[2*aps], a1[3*aps]
			a20, a21, a22, a23 := a2[0], a2[aps], a2[2*aps], a2[3*aps]
			a30, a31, a32, a33 := a3[0], a3[aps], a3[2*aps], a3[3*aps]
			for j, bv0 := range b0 {
				bv1, bv2, bv3 := b1[j], b2[j], b3[j]
				v0 := d0[j]
				v0 += float32(a00 * bv0)
				v0 += float32(a01 * bv1)
				v0 += float32(a02 * bv2)
				v0 += float32(a03 * bv3)
				d0[j] = v0
				v1 := d1[j]
				v1 += float32(a10 * bv0)
				v1 += float32(a11 * bv1)
				v1 += float32(a12 * bv2)
				v1 += float32(a13 * bv3)
				d1[j] = v1
				v2 := d2[j]
				v2 += float32(a20 * bv0)
				v2 += float32(a21 * bv1)
				v2 += float32(a22 * bv2)
				v2 += float32(a23 * bv3)
				d2[j] = v2
				v3 := d3[j]
				v3 += float32(a30 * bv0)
				v3 += float32(a31 * bv1)
				v3 += float32(a32 * bv2)
				v3 += float32(a33 * bv3)
				d3[j] = v3
			}
		}
		for ; r < rows; r++ {
			dr := d[r*ldd:][:cols]
			ar := a[r*ars+p*aps:]
			a0, a1, a2, a3 := ar[0], ar[aps], ar[2*aps], ar[3*aps]
			for j, v := range dr {
				v += float32(a0 * b0[j])
				v += float32(a1 * b1[j])
				v += float32(a2 * b2[j])
				v += float32(a3 * b3[j])
				dr[j] = v
			}
		}
	}
	for ; p < k; p++ {
		bp := b[p*ldb:][:cols]
		for r := 0; r < rows; r++ {
			dr := d[r*ldd:][:cols]
			av := a[r*ars+p*aps]
			for j, bv := range bp {
				dr[j] += float32(av * bv)
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
