package tensor

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	tn := New(2, 3)
	if tn.Len() != 6 {
		t.Fatalf("Len() = %d, want 6", tn.Len())
	}
	for i, v := range tn.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if tn.Rank() != 2 || tn.Dim(0) != 2 || tn.Dim(1) != 3 {
		t.Fatalf("shape = %v, want (2,3)", tn.Shape())
	}
}

func TestNewScalar(t *testing.T) {
	s := New()
	if s.Len() != 1 {
		t.Fatalf("scalar Len() = %d, want 1", s.Len())
	}
}

func TestFromSlice(t *testing.T) {
	tests := []struct {
		name    string
		data    []float32
		shape   []int
		wantErr bool
	}{
		{"exact", []float32{1, 2, 3, 4}, []int{2, 2}, false},
		{"too short", []float32{1, 2, 3}, []int{2, 2}, true},
		{"too long", []float32{1, 2, 3, 4, 5}, []int{2, 2}, true},
		{"negative dim", []float32{1}, []int{-1}, true},
		{"rank 1", []float32{1, 2}, []int{2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := FromSlice(tt.data, tt.shape...)
			if (err != nil) != tt.wantErr {
				t.Fatalf("FromSlice error = %v, wantErr = %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrShape) {
				t.Fatalf("error %v is not ErrShape", err)
			}
		})
	}
}

func TestAtSet(t *testing.T) {
	tn := New(3, 4)
	tn.Set(7.5, 2, 1)
	if got := tn.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	if got := tn.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major offset holds %v, want 7.5", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	b := a.Clone()
	b.Set(99, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshape(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatalf("Reshape: %v", err)
	}
	// Views share storage.
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Fatal("Reshape does not share storage")
	}
	if _, err := a.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("Reshape to wrong size: err = %v, want ErrShape", err)
	}
}

func TestRowView(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if r.Len() != 3 || r.At(0) != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	r.Set(0, 2)
	if a.At(1, 2) != 0 {
		t.Fatal("Row is not a view")
	}
}

func TestSlice2D(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	s, err := a.Slice2D(1, 3)
	if err != nil {
		t.Fatalf("Slice2D: %v", err)
	}
	if s.Dim(0) != 2 || s.At(0, 0) != 3 {
		t.Fatalf("Slice2D = %v", s)
	}
	if _, err := a.Slice2D(2, 5); err == nil {
		t.Fatal("out-of-range Slice2D succeeded")
	}
}

func TestAddMul(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	b := MustFromSlice([]float32{10, 20, 30}, 3)
	dst := New(3)
	if err := Add(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if dst.At(2) != 33 {
		t.Fatalf("add: %v", dst)
	}
	if err := Mul(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if dst.At(0) != 10 {
		t.Fatalf("mul: %v", dst)
	}
	if err := Add(dst, a, New(4)); !errors.Is(err, ErrShape) {
		t.Fatalf("mismatched add err = %v", err)
	}
}

func TestAXPY(t *testing.T) {
	x := MustFromSlice([]float32{1, 2}, 2)
	dst := MustFromSlice([]float32{10, 10}, 2)
	if err := AXPY(2, x, dst); err != nil {
		t.Fatal(err)
	}
	if dst.At(0) != 12 || dst.At(1) != 14 {
		t.Fatalf("AXPY: %v", dst)
	}
}

func TestMatMulBias(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	w := MustFromSlice([]float32{1, 0, 0, 2}, 2, 2)
	bias := MustFromSlice([]float32{10, 20}, 2)
	dst := New(2, 2)
	if err := MatMulBias(dst, a, w, bias); err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 24, 13, 28}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("matmul+bias[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
	if err := MatMulBias(dst, a, w, New(3)); !errors.Is(err, ErrShape) {
		t.Fatalf("bias of the wrong length: %v, want ErrShape", err)
	}
}

func TestSumRows(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	dst := New(2)
	if err := SumRows(dst, a); err != nil {
		t.Fatal(err)
	}
	if dst.At(0) != 9 || dst.At(1) != 12 {
		t.Fatalf("SumRows: %v", dst)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	dst := New(2, 3)
	if err := SoftmaxRows(dst, a); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		var sum float64
		for c := 0; c < 3; c++ {
			v := dst.At(r, c)
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				t.Fatalf("softmax[%d,%d] = %v out of range", r, c, v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	// Row of equal logits is uniform, even at extreme magnitude.
	if math.Abs(float64(dst.At(1, 0))-1.0/3.0) > 1e-5 {
		t.Fatalf("uniform row: %v", dst.At(1, 0))
	}
	// Monotone: larger logit gets larger probability.
	if !(dst.At(0, 2) > dst.At(0, 1) && dst.At(0, 1) > dst.At(0, 0)) {
		t.Fatal("softmax not monotone in logits")
	}
}

func TestMatMulBasic(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	dst := New(2, 2)
	if err := MatMul(dst, a, b); err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("matmul[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a, b := New(2, 3), New(4, 2)
	if err := MatMul(New(2, 2), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("inner mismatch err = %v", err)
	}
	if err := MatMul(New(3, 3), New(2, 3), New(3, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("dst mismatch err = %v", err)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := NewNormal(rng, 1, 5, 5)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	dst := New(5, 5)
	if err := MatMul(dst, a, id); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if math.Abs(float64(dst.Data()[i]-a.Data()[i])) > 1e-6 {
			t.Fatalf("A@I != A at %d", i)
		}
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(2)
	a := NewNormal(rng, 1, 4, 6)
	b := NewNormal(rng, 1, 5, 6) // (n,k): want a @ bᵀ -> (4,5)
	got := New(4, 5)
	if err := MatMulT(got, a, b); err != nil {
		t.Fatal(err)
	}
	bt, err := Transpose(b)
	if err != nil {
		t.Fatal(err)
	}
	want := New(4, 5)
	if err := MatMul(want, a, bt); err != nil {
		t.Fatal(err)
	}
	assertClose(t, got, want, 1e-5)
}

func TestMatMulTAccumMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(3)
	a := NewNormal(rng, 1, 7, 3) // (k,m)
	b := NewNormal(rng, 1, 7, 4) // (k,n)
	got := New(3, 4)
	if err := MatMulTAccum(got, a, b); err != nil {
		t.Fatal(err)
	}
	at, err := Transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := New(3, 4)
	if err := MatMul(want, at, b); err != nil {
		t.Fatal(err)
	}
	assertClose(t, got, want, 1e-5)
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Exercise the pooled parallel path (work above fanOutWork at
	// parallelism > 1) and confirm the result matches a serial
	// reference computation.
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	rng := NewRNG(4)
	m, k, n := 139, 301, 129 // > fanOutWork multiply-adds
	a := NewNormal(rng, 1, m, k)
	b := NewNormal(rng, 1, k, n)
	got := New(m, n)
	before := handOffs.Load()
	if err := MatMul(got, a, b); err != nil {
		t.Fatal(err)
	}
	if handOffs.Load() == before {
		t.Fatal("the matmul handed nothing to the pool")
	}
	want := New(m, n)
	matmulRange(want.Data(), a.Data(), b.Data(), nil, 0, m, k, n, k, 1, false, true)
	assertClose(t, got, want, 1e-5)
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		a := NewNormal(rng, 1, rows, cols)
		at, err := Transpose(a)
		if err != nil {
			return false
		}
		att, err := Transpose(at)
		if err != nil {
			return false
		}
		if !att.SameShape(a) {
			return false
		}
		for i := range a.Data() {
			if a.Data()[i] != att.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A @ B) @ C == A @ (B @ C) within float tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n, p := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := NewNormal(rng, 1, m, k)
		b := NewNormal(rng, 1, k, n)
		c := NewNormal(rng, 1, n, p)

		ab := New(m, n)
		if err := MatMul(ab, a, b); err != nil {
			return false
		}
		left := New(m, p)
		if err := MatMul(left, ab, c); err != nil {
			return false
		}
		bc := New(k, p)
		if err := MatMul(bc, b, c); err != nil {
			return false
		}
		right := New(m, p)
		if err := MatMul(right, a, bc); err != nil {
			return false
		}
		for i := range left.Data() {
			if math.Abs(float64(left.Data()[i]-right.Data()[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any input.
func TestSoftmaxDistributionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(10)
		a := New(rows, cols)
		a.FillUniform(rng, -50, 50)
		dst := New(rows, cols)
		if err := SoftmaxRows(dst, a); err != nil {
			return false
		}
		for r := 0; r < rows; r++ {
			var sum float64
			for c := 0; c < cols; c++ {
				v := float64(dst.At(r, c))
				if v < 0 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed produced zero state")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(7)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestBytes(t *testing.T) {
	if got := New(10, 10).Bytes(); got != 400 {
		t.Fatalf("Bytes() = %d, want 400", got)
	}
}

func TestNormsAndSums(t *testing.T) {
	a := MustFromSlice([]float32{3, -4}, 2)
	if a.Sum() != -1 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestFillAndZero(t *testing.T) {
	a := New(4)
	a.Fill(2.5)
	if a.Sum() != 10 {
		t.Fatalf("Fill: %v", a)
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatalf("Zero: %v", a)
	}
	a.Fill(1)
	a.Scale(3)
	if a.Sum() != 12 {
		t.Fatalf("Scale: %v", a)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	for _, tn := range []*Tensor{New(), New(3), New(100)} {
		if s := tn.String(); s == "" {
			t.Fatal("empty String()")
		}
	}
}

func assertClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v != %v", got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		if math.Abs(float64(got.Data()[i]-want.Data()[i])) > tol {
			t.Fatalf("element %d: got %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor:
// the explicit reference MatMulT and MatMulTAccum are checked against.
func Transpose(a *Tensor) (*Tensor, error) {
	if len(a.shape) != 2 {
		return nil, fmt.Errorf("%w: transpose of rank-%d tensor", ErrShape, len(a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.data[c*rows+r] = a.data[r*cols+c]
		}
	}
	return out, nil
}
