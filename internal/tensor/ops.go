package tensor

import (
	"fmt"
	"math"
)

// An elementwise kernel states one unit of work per element. Each loop
// is written once as a range function: the serial path calls it
// directly, with no closure, and the fan-out calls it per chunk.

// unary runs kernel over d and a, split into chunks when the fan-out
// rule says so.
func unary(d, a []float32, kernel func(d, a []float32)) {
	if serialFor(len(d), 1) {
		kernel(d, a)
		return
	}
	ParallelFor(len(d), 1, func(lo, hi int) {
		kernel(d[lo:hi], a[lo:hi])
	})
}

// binary is unary with a second operand.
func binary(d, a, b []float32, kernel func(d, a, b []float32)) {
	if serialFor(len(d), 1) {
		kernel(d, a, b)
		return
	}
	ParallelFor(len(d), 1, func(lo, hi int) {
		kernel(d[lo:hi], a[lo:hi], b[lo:hi])
	})
}

// Add computes dst = a + b elementwise. All three tensors must have the
// same element count; dst may alias a or b.
func Add(dst, a, b *Tensor) error {
	if len(a.data) != len(b.data) || len(dst.data) != len(a.data) {
		return fmt.Errorf("%w: add %v + %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	binary(dst.data, a.data, b.data, addRange)
	return nil
}

func addRange(d, a, b []float32) {
	d, b = d[:len(a)], b[:len(a)]
	if haveAVX2 && len(a) > 0 {
		addAVX2(&d[0], &a[0], &b[0], len(a))
		return
	}
	for i, av := range a {
		d[i] = av + b[i]
	}
}

// Mul computes dst = a * b elementwise (Hadamard product).
func Mul(dst, a, b *Tensor) error {
	if len(a.data) != len(b.data) || len(dst.data) != len(a.data) {
		return fmt.Errorf("%w: mul %v * %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	binary(dst.data, a.data, b.data, mulRange)
	return nil
}

func mulRange(d, a, b []float32) {
	d, b = d[:len(a)], b[:len(a)]
	if haveAVX2 && len(a) > 0 {
		mulAVX2(&d[0], &a[0], &b[0], len(a))
		return
	}
	for i, av := range a {
		d[i] = av * b[i]
	}
}

// AXPY computes dst += alpha * x.
func AXPY(alpha float32, x, dst *Tensor) error {
	if len(x.data) != len(dst.data) {
		return fmt.Errorf("%w: axpy %v into %v", ErrShape, x.shape, dst.shape)
	}
	xd, dd := x.data, dst.data
	if serialFor(len(dd), 1) {
		axpyRange(alpha, xd, dd)
		return nil
	}
	ParallelFor(len(dd), 1, func(lo, hi int) {
		axpyRange(alpha, xd[lo:hi], dd[lo:hi])
	})
	return nil
}

func axpyRange(alpha float32, x, d []float32) {
	d = d[:len(x)]
	if haveAVX2 && len(x) > 0 {
		axpyAVX2(&d[0], &x[0], len(x), alpha)
		return
	}
	for i, xv := range x {
		d[i] += float32(alpha * xv)
	}
}

// Scale multiplies every element of t by alpha in place.
func (t *Tensor) Scale(alpha float32) {
	td := t.data
	if serialFor(len(td), 1) {
		scaleRange(alpha, td)
		return
	}
	ParallelFor(len(td), 1, func(lo, hi int) {
		scaleRange(alpha, td[lo:hi])
	})
}

func scaleRange(alpha float32, d []float32) {
	if haveAVX2 && len(d) > 0 {
		scaleAVX2(&d[0], len(d), alpha)
		return
	}
	for i := range d {
		d[i] *= alpha
	}
}

// SumRows accumulates the rows of a rank-2 tensor into a rank-1 tensor:
// dst[c] += sum over rows of a[r, c]. Used for bias gradients.
func SumRows(dst, a *Tensor) error {
	if len(a.shape) != 2 || len(dst.shape) != 1 || a.shape[1] != dst.shape[0] {
		return fmt.Errorf("%w: sum rows of %v into %v", ErrShape, a.shape, dst.shape)
	}
	rows, cols := a.shape[0], a.shape[1]
	for r := 0; r < rows; r++ {
		ar := a.data[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			dst.data[c] += ar[c]
		}
	}
	return nil
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the maximum absolute value of any element, or 0 for an
// empty tensor.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// SoftmaxRows applies a numerically stable softmax to each row of a
// rank-2 tensor, writing into dst (which may alias a).
func SoftmaxRows(dst, a *Tensor) error {
	if len(a.shape) != 2 || !dst.SameShape(a) {
		return fmt.Errorf("%w: softmax rows of %v into %v", ErrShape, a.shape, dst.shape)
	}
	rows, cols := a.shape[0], a.shape[1]
	if serialFor(rows, cols) {
		softmaxRowRange(dst.data, a.data, cols, cols, 0, rows)
		return nil
	}
	ParallelFor(rows, cols, func(rowLo, rowHi int) {
		softmaxRowRange(dst.data, a.data, cols, cols, rowLo, rowHi)
	})
	return nil
}

// SoftmaxCausal is attention's score softmax, in place on the rows x
// cols view s (cols >= rows): every element is multiplied by scale,
// mask is added to the entries of row i right of column cols-rows+i
// (the key positions after query i, which sits at the last rows of the
// cols positions), and each row then gets SoftmaxRows' stable softmax.
// Each element sees exactly the operations of Scale, the mask's adds
// and SoftmaxRows run one after another; four rows at a time, the
// scale and the mask ride along with their interleaved max scans.
func SoftmaxCausal(s View, scale, mask float32) {
	r := 0
	for ; r+rowGroup <= s.rows; r += rowGroup {
		x := s.data[r*s.stride:]
		expNormalize4(x, x, s.stride, s.cols, causalMax4(x, s.stride, s.cols, s.cols-s.rows+r, scale, mask))
	}
	for ; r < s.rows; r++ {
		row := s.row(r)
		scaleRange(scale, row)
		for j := s.cols - s.rows + r + 1; j < s.cols; j++ {
			row[j] += mask
		}
		softmaxRow(row, row)
	}
}

// causalMax4 scales and masks four rows of x (row stride ld) in place,
// row i's columns after last+i masked, and returns their maxima by
// ascending scan.
func causalMax4(x []float32, ld, cols, last int, scale, mask float32) (m [rowGroup]float32) {
	x0 := x[:cols]
	x1, x2, x3 := x[ld:][:len(x0)], x[2*ld:][:len(x0)], x[3*ld:][:len(x0)]
	x0[0], x1[0], x2[0], x3[0] = float32(x0[0]*scale), float32(x1[0]*scale), float32(x2[0]*scale), float32(x3[0]*scale)
	m0, m1, m2, m3 := x0[0], x1[0], x2[0], x3[0]
	for c := 1; c <= last; c++ { // visible in all four rows
		v0, v1, v2, v3 := float32(x0[c]*scale), float32(x1[c]*scale), float32(x2[c]*scale), float32(x3[c]*scale)
		x0[c], x1[c], x2[c], x3[c] = v0, v1, v2, v3
		m0, m1, m2, m3 = maxStep(m0, v0), maxStep(m1, v1), maxStep(m2, v2), maxStep(m3, v3)
	}
	for c := max(last+1, 1); c < len(x0); c++ {
		v0, v1, v2, v3 := float32(x0[c]*scale)+mask, float32(x1[c]*scale), float32(x2[c]*scale), float32(x3[c]*scale)
		if c > last+1 {
			v1 += mask
		}
		if c > last+2 {
			v2 += mask
		}
		if c > last+3 {
			v3 += mask
		}
		x0[c], x1[c], x2[c], x3[c] = v0, v1, v2, v3
		m0, m1, m2, m3 = maxStep(m0, v0), maxStep(m1, v1), maxStep(m2, v2), maxStep(m3, v3)
	}
	return [rowGroup]float32{m0, m1, m2, m3}
}

// SoftmaxBackward turns dp, the gradient with respect to the softmax
// probabilities p, into scale times the gradient with respect to the
// logits, in place and row by row:
//
//	dot = Σ_c float64(dp[c])·float64(p[c])   float64, ascending c
//	dp[c] = float32(p[c]·(dp[c] − float32(dot)))·scale
//
// Four rows' dot products run interleaved, each its own chain.
func SoftmaxBackward(dp, p View, scale float32) error {
	if dp.rows != p.rows || dp.cols != p.cols {
		return fmt.Errorf("%w: softmax backward of %dx%d with probabilities %dx%d", ErrShape, dp.rows, dp.cols, p.rows, p.cols)
	}
	for r := 0; r < p.rows; r += rowGroup {
		var dots [rowGroup]float64
		group := min(rowGroup, p.rows-r)
		if group == rowGroup {
			dots = rowDots4(dp.data[r*dp.stride:], dp.stride, p.data[r*p.stride:], p.stride, p.cols)
		} else {
			for i := range group {
				dots[i] = rowDot(dp.row(r+i), p.row(r+i))
			}
		}
		for i := range group {
			d := float32(dots[i])
			dpr, pr := dp.row(r+i), p.row(r+i)
			for c, pv := range pr {
				dpr[c] = float32(pv*(dpr[c]-d)) * scale
			}
		}
	}
	return nil
}

// rowDot is Σ float64(x[c])·float64(y[c]) in ascending c. The product
// of two float32s is exact in float64, and the conversion keeps a
// compiler from fusing it into the add.
func rowDot(x, y []float32) float64 {
	y = y[:len(x)]
	var s float64
	for c, v := range x {
		s += float64(float64(v) * float64(y[c]))
	}
	return s
}

// rowDots4 is rowDot on four rows of x (row stride ldx) and y (ldy),
// their chains interleaved.
func rowDots4(x []float32, ldx int, y []float32, ldy, cols int) [rowGroup]float64 {
	x0 := x[:cols]
	x1, x2, x3 := x[ldx:][:len(x0)], x[2*ldx:][:len(x0)], x[3*ldx:][:len(x0)]
	y0, y1, y2, y3 := y[:len(x0)], y[ldy:][:len(x0)], y[2*ldy:][:len(x0)], y[3*ldy:][:len(x0)]
	var s0, s1, s2, s3 float64
	for c, v := range x0 {
		s0 += float64(float64(v) * float64(y0[c]))
		s1 += float64(float64(x1[c]) * float64(y1[c]))
		s2 += float64(float64(x2[c]) * float64(y2[c]))
		s3 += float64(float64(x3[c]) * float64(y3[c]))
	}
	return [rowGroup]float64{s0, s1, s2, s3}
}

// softmaxRowRange applies the stable softmax to rows [rowLo, rowHi) of
// a into dst, both with rows ld floats apart: per row, the max by
// ascending scan, exp(x − max) (expShift), the float64 sum of those in
// ascending order, and each one times float32(1/sum). Four rows at a
// time run their max scans and their sums interleaved.
func softmaxRowRange(dst, a []float32, ld, cols, rowLo, rowHi int) {
	r := rowLo
	for ; r+rowGroup <= rowHi; r += rowGroup {
		softmax4(dst[r*ld:], a[r*ld:], ld, cols)
	}
	for ; r < rowHi; r++ {
		softmaxRow(dst[r*ld:][:cols], a[r*ld:][:cols])
	}
}

// maxStep is the max scan's step, v if v > m and m otherwise: a NaN v
// never replaces m, a NaN m is never replaced, and of two zeros the
// first stays. It selects on the bits so that the compiler emits a
// conditional move, not a branch that random scores mispredict.
func maxStep(m, v float32) float32 {
	b, vb := math.Float32bits(m), math.Float32bits(v)
	if v > m {
		b = vb
	}
	return math.Float32frombits(b)
}

// softmaxRow is the stable softmax of one row.
func softmaxRow(dr, ar []float32) {
	maxV := ar[0]
	for _, v := range ar[1:] {
		maxV = maxStep(maxV, v)
	}
	expShift(dr, ar, maxV)
	var sum float64
	for _, e := range dr {
		sum += float64(e)
	}
	scaleRange(float32(1.0/sum), dr)
}

// softmax4 is softmaxRow on four rows, row stride ld.
func softmax4(dst, a []float32, ld, cols int) {
	a0 := a[:cols]
	a1, a2, a3 := a[ld:][:len(a0)], a[2*ld:][:len(a0)], a[3*ld:][:len(a0)]
	m0, m1, m2, m3 := a0[0], a1[0], a2[0], a3[0]
	for c := 1; c < len(a0); c++ {
		m0 = maxStep(m0, a0[c])
		m1 = maxStep(m1, a1[c])
		m2 = maxStep(m2, a2[c])
		m3 = maxStep(m3, a3[c])
	}
	expNormalize4(dst, a, ld, cols, [rowGroup]float32{m0, m1, m2, m3})
}

// expNormalize4 finishes softmaxRow on four rows whose maxima are m:
// dst = exp(a − max), the four float64 sums interleaved, then each row
// times float32(1/sum).
func expNormalize4(dst, a []float32, ld, cols int, m [rowGroup]float32) {
	d0 := dst[:cols]
	d1, d2, d3 := dst[ld:][:len(d0)], dst[2*ld:][:len(d0)], dst[3*ld:][:len(d0)]
	expShift(d0, a[:cols], m[0])
	expShift(d1, a[ld:][:cols], m[1])
	expShift(d2, a[2*ld:][:cols], m[2])
	expShift(d3, a[3*ld:][:cols], m[3])
	var s0, s1, s2, s3 float64
	for c, e := range d0 {
		s0 += float64(e)
		s1 += float64(d1[c])
		s2 += float64(d2[c])
		s3 += float64(d3[c])
	}
	scaleRange(float32(1.0/s0), d0)
	scaleRange(float32(1.0/s1), d1)
	scaleRange(float32(1.0/s2), d2)
	scaleRange(float32(1.0/s3), d3)
}
