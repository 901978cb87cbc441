// Package tensor implements dense float32 tensors and the numerical
// kernels needed to train transformer models on the CPU.
//
// Tensors are row-major and contiguous. The package favours explicit,
// allocation-conscious APIs over operator sugar: most operations have
// an in-place or destination-passing variant so the training loop can
// reuse buffers.
package tensor

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrShape is returned (wrapped) by operations whose operand shapes are
// incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Tensor is a dense, row-major float32 tensor.
type Tensor struct {
	data  []float32
	shape []int
	// home is the Scratch arena that handed the tensor out (nil for
	// one that no arena has held), so a Put into any arena returns it
	// there; free marks it retained on home's free list, so a duplicate
	// Put is caught without scanning the list. Both are guarded by
	// home's mutex.
	home *Scratch
	free bool
}

// New creates a zero-filled tensor with the given shape.
// It panics if any dimension is negative; a zero-dimension tensor is a
// scalar holding one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{
		data:  make([]float32, n),
		shape: append([]int(nil), shape...),
	}
}

// FromSlice wraps data in a tensor with the given shape. The slice is
// used directly (not copied); len(data) must equal the shape's element
// count.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("%w: negative dimension %d", ErrShape, d)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v (%d elements)",
			ErrShape, len(data), shape, n)
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...)}, nil
}

// MustFromSlice is FromSlice that panics on error. Intended for tests
// and package-internal literals with statically known shapes.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Bytes returns the in-memory size of the tensor's data in bytes.
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dimension %d (size %d)", ix, i, t.shape[i]))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element
// counts (shape itself is not checked beyond length).
func (t *Tensor) CopyFrom(src *Tensor) error {
	if len(t.data) != len(src.data) {
		return fmt.Errorf("%w: copy from %v into %v", ErrShape, src.shape, t.shape)
	}
	copy(t.data, src.data)
	return nil
}

// Reshape returns a tensor sharing t's data with a new shape. The new
// shape must have the same number of elements.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: cannot reshape %v (%d elements) to %v (%d elements)",
			ErrShape, t.shape, len(t.data), shape, n)
	}
	return &Tensor{data: t.data, shape: append([]int(nil), shape...)}, nil
}

// MustReshape is Reshape that panics on error.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

// Row returns a view of row i of a rank-2 tensor as a rank-1 tensor
// sharing storage.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	cols := t.shape[1]
	return &Tensor{data: t.data[i*cols : (i+1)*cols], shape: []int{cols}}
}

// Slice2D returns a view of rows [lo, hi) of a rank-2 tensor, sharing
// storage with t.
func (t *Tensor) Slice2D(lo, hi int) (*Tensor, error) {
	if len(t.shape) != 2 {
		return nil, fmt.Errorf("%w: Slice2D on rank-%d tensor", ErrShape, len(t.shape))
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		return nil, fmt.Errorf("%w: rows [%d,%d) out of range for %v", ErrShape, lo, hi, t.shape)
	}
	cols := t.shape[1]
	return &Tensor{data: t.data[lo*cols : hi*cols], shape: []int{hi - lo, cols}}, nil
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v: one element, then copies doubling
// the filled prefix, so the stores go through memmove's vector loop.
func (t *Tensor) Fill(v float32) {
	if len(t.data) == 0 {
		return
	}
	t.data[0] = v
	for n := 1; n < len(t.data); n *= 2 {
		copy(t.data[n:], t.data[:n])
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description: shape plus up to 8 leading
// elements. Intended for debugging, not serialization.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor")
	b.WriteString(shapeString(t.shape))
	b.WriteString("[")
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(strconv.FormatFloat(float64(t.data[i]), 'g', 4, 32))
	}
	if len(t.data) > 8 {
		b.WriteString(" ...")
	}
	b.WriteString("]")
	return b.String()
}

func shapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = strconv.Itoa(d)
	}
	return "(" + strings.Join(parts, "x") + ")"
}
