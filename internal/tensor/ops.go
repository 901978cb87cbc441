package tensor

import (
	"fmt"
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
		softmaxRowRange(dst.data, a.data, cols, 0, rows)
		return nil
	}
	ParallelFor(rows, cols, func(rowLo, rowHi int) {
		softmaxRowRange(dst.data, a.data, cols, rowLo, rowHi)
	})
	return nil
}

// softmaxRowRange applies the stable softmax to rows [rowLo, rowHi).
func softmaxRowRange(dst, a []float32, cols, rowLo, rowHi int) {
	for r := rowLo; r < rowHi; r++ {
		ar := a[r*cols : (r+1)*cols]
		dr := dst[r*cols : (r+1)*cols]
		maxV := ar[0]
		for _, v := range ar[1:] {
			if v > maxV {
				maxV = v
			}
		}
		expShift(dr, ar, maxV)
		var sum float64
		for _, e := range dr {
			sum += float64(e)
		}
		inv := float32(1.0 / sum)
		for c := range dr {
			dr[c] *= inv
		}
	}
}
