package tensor

import "fmt"

// View is a rows x cols window of a rank-2 tensor, its rows stride
// floats apart in the tensor's backing array: one attention head's
// columns of a (rows, heads·headDim) projection, or a column range of
// a score matrix. The matmul and softmax view forms read and write
// through views in place, so a caller need not gather a window into a
// contiguous buffer and scatter the result back.
type View struct {
	data               []float32 // from the first element to the last
	rows, cols, stride int
}

// Window returns the view of rows [r, r+rows) and columns [c, c+cols)
// of the rank-2 tensor t. It panics if t is not rank 2 or the window
// does not fit, as a slice expression out of range does.
func (t *Tensor) Window(r, c, rows, cols int) View {
	if len(t.shape) != 2 {
		panic("tensor: window of a tensor that is not rank 2")
	}
	return View{data: t.data, rows: t.shape[0], cols: t.shape[1], stride: t.shape[1]}.Window(r, c, rows, cols)
}

// Window returns the view of rows [r, r+rows) and columns [c, c+cols)
// of v. It panics if the window does not fit. It is small enough to
// inline: an attention head takes a dozen windows.
func (v View) Window(r, c, rows, cols int) View {
	if r|c|rows|cols < 0 || r+rows > v.rows || c+cols > v.cols { // the OR is negative if any one is
		panic("tensor: window out of range")
	}
	w := View{rows: rows, cols: cols, stride: v.stride}
	if rows > 0 && cols > 0 {
		off := r*v.stride + c
		w.data = v.data[off : off+(rows-1)*v.stride+cols]
	}
	return w
}

// row returns row i of v.
func (v View) row(i int) []float32 {
	if v.cols == 0 {
		return nil
	}
	return v.data[i*v.stride:][:v.cols]
}

// MatMulView computes dst = a @ b on views, or dst += a @ b when
// accumulate is set: a is (m,k), b is (k,n), dst is (m,n). Each element
// of dst is one accumulator fed in ascending p, so a reduction split
// into a zero-mode call over its first rows of b and an accumulating
// call over the rest computes exactly what one call over all of them
// does: the partial sum passes through dst as a float32, losslessly.
// dst must not overlap a or b (ErrAlias).
func MatMulView(dst, a, b View, accumulate bool) error {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: matmul view %dx%d @ %dx%d -> %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols)
	}
	if overlaps(dst.data, a.data) || overlaps(dst.data, b.data) {
		return fmt.Errorf("%w: matmul view", ErrAlias)
	}
	matmul(dst.data, a.data, b.data, nil, a.rows, a.cols, b.cols, dst.stride, a.stride, 1, b.stride, false, !accumulate)
	return nil
}

// MatMulTView computes dst = a @ bᵀ on views: a is (m,k), b is (n,k),
// dst is (m,n). Column ranges of dst computed by separate calls hold
// the same bits as one call: each element is its own dot product. dst
// must not overlap a or b (ErrAlias).
func MatMulTView(dst, a, b View) error {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		return fmt.Errorf("%w: matmulT view %dx%d @ (%dx%d)ᵀ -> %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols)
	}
	if overlaps(dst.data, a.data) || overlaps(dst.data, b.data) {
		return fmt.Errorf("%w: matmulT view", ErrAlias)
	}
	matmul(dst.data, a.data, b.data, nil, a.rows, a.cols, b.rows, dst.stride, a.stride, 1, b.stride, true, true)
	return nil
}

// MatMulTAccumView computes dst = aᵀ @ b on views, or dst += aᵀ @ b
// when accumulate is set (MatMulTAccum): a is (k,m), b is (k,n), dst is
// (m,n). dst must not overlap a or b (ErrAlias).
func MatMulTAccumView(dst, a, b View, accumulate bool) error {
	if a.rows != b.rows || dst.rows != a.cols || dst.cols != b.cols {
		return fmt.Errorf("%w: matmulTAccum view (%dx%d)ᵀ @ %dx%d -> %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols)
	}
	if overlaps(dst.data, a.data) || overlaps(dst.data, b.data) {
		return fmt.Errorf("%w: matmulTAccum view", ErrAlias)
	}
	matmul(dst.data, a.data, b.data, nil, a.cols, a.rows, b.cols, dst.stride, 1, a.stride, b.stride, false, !accumulate)
	return nil
}
