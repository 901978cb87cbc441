package tensor

import (
	"fmt"
)

// elemwiseGrain is the ParallelFor grain for memory-bound elementwise
// kernels: below ~32Ki elements the fan-out overhead exceeds the work.
const elemwiseGrain = 1 << 15

// softmaxGrainElems sizes the per-chunk row grain for SoftmaxRows: the
// size from which two chunks plus a pool hand-off beat the caller doing
// it all. That is 1<<17 at the assembly exp's ≈3 ns per element
// (measured in docs/PERFORMANCE.md, "Fan-out threshold") and the
// 1<<13 of the float64 exp for the portable twin, which costs as much.
func softmaxGrainElems() int {
	if haveAVX2 {
		return 1 << 17
	}
	return 1 << 13
}

// Add computes dst = a + b elementwise. All three tensors must have the
// same element count; dst may alias a or b.
func Add(dst, a, b *Tensor) error {
	if len(a.data) != len(b.data) || len(dst.data) != len(a.data) {
		return fmt.Errorf("%w: add %v + %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	ad, bd, dd := a.data, b.data, dst.data
	if serialFor(len(dd), elemwiseGrain) {
		for i, av := range ad {
			dd[i] = av + bd[i]
		}
		return nil
	}
	ParallelFor(len(dd), elemwiseGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dd[i] = ad[i] + bd[i]
		}
	})
	return nil
}

// Mul computes dst = a * b elementwise (Hadamard product).
func Mul(dst, a, b *Tensor) error {
	if len(a.data) != len(b.data) || len(dst.data) != len(a.data) {
		return fmt.Errorf("%w: mul %v * %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	ad, bd, dd := a.data, b.data, dst.data
	if serialFor(len(dd), elemwiseGrain) {
		for i, av := range ad {
			dd[i] = av * bd[i]
		}
		return nil
	}
	ParallelFor(len(dd), elemwiseGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dd[i] = ad[i] * bd[i]
		}
	})
	return nil
}

// AXPY computes dst += alpha * x.
func AXPY(alpha float32, x, dst *Tensor) error {
	if len(x.data) != len(dst.data) {
		return fmt.Errorf("%w: axpy %v into %v", ErrShape, x.shape, dst.shape)
	}
	xd, dd := x.data, dst.data
	if serialFor(len(dd), elemwiseGrain) {
		for i, xv := range xd {
			dd[i] += alpha * xv
		}
		return nil
	}
	ParallelFor(len(dd), elemwiseGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dd[i] += alpha * xd[i]
		}
	})
	return nil
}

// Scale multiplies every element of t by alpha in place.
func (t *Tensor) Scale(alpha float32) {
	td := t.data
	if serialFor(len(td), elemwiseGrain) {
		for i := range td {
			td[i] *= alpha
		}
		return
	}
	ParallelFor(len(td), elemwiseGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			td[i] *= alpha
		}
	})
}

// AddRowBroadcast computes dst[r, :] = a[r, :] + bias[:] for every row
// of a rank-2 tensor. dst may alias a.
func AddRowBroadcast(dst, a, bias *Tensor) error {
	if len(a.shape) != 2 || len(bias.shape) != 1 || a.shape[1] != bias.shape[0] {
		return fmt.Errorf("%w: row broadcast %v + %v", ErrShape, a.shape, bias.shape)
	}
	if !dst.SameShape(a) {
		return fmt.Errorf("%w: row broadcast destination %v for input %v", ErrShape, dst.shape, a.shape)
	}
	rows, cols := a.shape[0], a.shape[1]
	for r := 0; r < rows; r++ {
		ar := a.data[r*cols : (r+1)*cols]
		dr := dst.data[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			dr[c] = ar[c] + bias.data[c]
		}
	}
	return nil
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
	grain := 1
	if cols > 0 {
		grain = softmaxGrainElems() / cols
		if grain < 1 {
			grain = 1
		}
	}
	if serialFor(rows, grain) {
		softmaxRowRange(dst.data, a.data, cols, 0, rows)
		return nil
	}
	ParallelFor(rows, grain, func(rowLo, rowHi int) {
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
