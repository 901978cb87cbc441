package tensor

import (
	"fmt"
	"math"
	"testing"
)

const viewCanary = float32(-12345.678)

// canaried returns a tensor with rows+2 rows and cols+5 columns filled
// with viewCanary, and the view of its rows x cols window at row 1,
// column 2, so that canaries sit above, below, left and right of the
// window and between each of its rows.
func canaried(rows, cols int) (*Tensor, View) {
	back := New(rows+2, cols+5)
	back.Fill(viewCanary)
	return back, back.Window(1, 2, rows, cols)
}

// put copies the rows x cols tensor src into the window v.
func put(v View, src *Tensor) {
	for i := 0; i < v.rows; i++ {
		copy(v.row(i), src.data[i*v.cols:][:v.cols])
	}
}

// expectWindow fails unless the window of back at row 1, column 2
// holds want bit for bit and every element outside it is still
// viewCanary.
func expectWindow(t *testing.T, back, want *Tensor, label string) {
	t.Helper()
	rows, cols := want.shape[0], want.shape[1]
	w := back.shape[1]
	for i := range back.data {
		r, c := i/w-1, i%w-2
		g := back.data[i]
		if r < 0 || r >= rows || c < 0 || c >= cols {
			if math.Float32bits(g) != math.Float32bits(viewCanary) {
				t.Fatalf("%s: element (%d, %d) outside the window was written", label, r, c)
			}
			continue
		}
		if wv := want.data[r*cols+c]; math.Float32bits(g) != math.Float32bits(wv) {
			t.Fatalf("%s: element (%d, %d) is %g (%#x), want %g (%#x)", label, r, c, g, math.Float32bits(g), wv, math.Float32bits(wv))
		}
	}
}

// TestStridedMatMulMatchesGatherAndScatter runs each view form on
// windows of larger tensors, over the tile-boundary shape grid at every
// tier this CPU runs, and compares it with what a caller would get by
// gathering the windows into contiguous tensors, making the contiguous
// call and scattering the result back. The canaries around and between
// the window's rows must survive. The accumulating forms are checked
// both ways, and a reduction split into a zero-mode call over its first
// rows and an accumulating call over the rest must equal one call.
func TestStridedMatMulMatchesGatherAndScatter(t *testing.T) {
	for _, s := range boundaryShapes {
		if s.m*s.k*s.n > 1<<18 {
			continue // the contiguous tests cover the shapes that fan out
		}
		rng := NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n + 1))
		a, at := NewNormal(rng, 1, s.m, s.k), NewNormal(rng, 1, s.k, s.m)
		b, bt := NewNormal(rng, 1, s.k, s.n), NewNormal(rng, 1, s.n, s.k)
		seed := NewNormal(rng, 1, s.m, s.n)

		want := New(s.m, s.n)
		must(t, MatMul(want, a, b))
		wantAcc := seed.Clone()
		refMatMulAccum(wantAcc, a, b)
		wantT := New(s.m, s.n)
		must(t, MatMulT(wantT, a, bt))
		wantTA := New(s.m, s.n)
		must(t, MatMulTAccum(wantTA, at, b))
		wantTAAcc := seed.Clone()
		must(t, MatMulTAccum(wantTAAcc, at, b))

		for _, tier := range Tiers() {
			WithTier(tier, func() {
				label := func(form string) string { return fmt.Sprintf("%s %v tier %s", form, s, tier) }
				_, av := canaried(s.m, s.k)
				put(av, a)
				_, atv := canaried(s.k, s.m)
				put(atv, at)
				_, bv := canaried(s.k, s.n)
				put(bv, b)
				_, btv := canaried(s.n, s.k)
				put(btv, bt)

				back, dv := canaried(s.m, s.n)
				must(t, MatMulView(dv, av, bv, false))
				expectWindow(t, back, want, label("MatMulView"))

				back, dv = canaried(s.m, s.n)
				put(dv, seed)
				must(t, MatMulView(dv, av, bv, true))
				expectWindow(t, back, wantAcc, label("MatMulView accumulating"))

				back, dv = canaried(s.m, s.n)
				k1 := s.k / 2
				must(t, MatMulView(dv, av.Window(0, 0, s.m, k1), bv.Window(0, 0, k1, s.n), false))
				must(t, MatMulView(dv, av.Window(0, k1, s.m, s.k-k1), bv.Window(k1, 0, s.k-k1, s.n), true))
				expectWindow(t, back, want, label("MatMulView split at the reduction"))

				back, dv = canaried(s.m, s.n)
				n1 := s.n / 2
				must(t, MatMulTView(dv.Window(0, 0, s.m, n1), av, btv.Window(0, 0, n1, s.k)))
				must(t, MatMulTView(dv.Window(0, n1, s.m, s.n-n1), av, btv.Window(n1, 0, s.n-n1, s.k)))
				expectWindow(t, back, wantT, label("MatMulTView in two column ranges"))

				back, dv = canaried(s.m, s.n)
				must(t, MatMulTAccumView(dv, atv, bv, false))
				expectWindow(t, back, wantTA, label("MatMulTAccumView"))

				back, dv = canaried(s.m, s.n)
				put(dv, seed)
				must(t, MatMulTAccumView(dv, atv, bv, true))
				expectWindow(t, back, wantTAAcc, label("MatMulTAccumView accumulating"))
			})
		}
	}
}

// TestMatMulViewsRejectBadOperands: mismatched windows are ErrShape,
// overlapping ones ErrAlias, and a window that does not fit panics.
func TestMatMulViewsRejectBadOperands(t *testing.T) {
	x := New(8, 8)
	a, b, d := x.Window(0, 0, 2, 3), x.Window(2, 0, 3, 4), x.Window(5, 0, 2, 4)
	if err := MatMulView(d, a, b, false); err != nil {
		t.Fatalf("disjoint windows of one tensor: %v", err)
	}
	if err := MatMulView(x.Window(1, 0, 2, 4), a, b, false); err == nil {
		t.Fatal("MatMulView wrote into its own operand")
	}
	if err := MatMulTView(d, a, b); err == nil {
		t.Fatal("MatMulTView accepted a 2x3 @ (3x4)ᵀ")
	}
	if err := MatMulTAccumView(d, a, b, false); err == nil {
		t.Fatal("MatMulTAccumView accepted a (2x3)ᵀ @ 3x4")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a window past the tensor's edge did not panic")
		}
	}()
	x.Window(6, 6, 3, 1)
}

// TestSoftmaxCausalMatchesItsSteps holds SoftmaxCausal, on windows of
// every shape up to 9 rows and rows..rows+5 columns, salted with the
// values where scaling, masking and the max scan could part ways, to
// what Scale, the mask's adds and SoftmaxRows compute one after
// another, at every tier. SoftmaxBackward is held to the per-row loop
// and Scale it replaces the same way.
func TestSoftmaxCausalMatchesItsSteps(t *testing.T) {
	const scale, mask = float32(0.35), float32(-1e9)
	salt := []float32{0, float32(math.Copysign(0, -1)), 1e-40, 1e30, -1e30, 60, -60,
		math.MaxFloat32, -math.MaxFloat32, inf32, -inf32, float32(math.NaN())}
	rng := NewRNG(80)
	for rows := 1; rows <= 9; rows++ {
		for cols := rows; cols <= rows+5; cols++ {
			x := NewNormal(rng, 3, rows, cols)
			for i := range x.data {
				if rng.Intn(5) == 0 {
					x.data[i] = salt[rng.Intn(len(salt))]
				}
			}
			want := x.Clone()
			want.Scale(scale)
			for i := 0; i < rows; i++ {
				for j := cols - rows + i + 1; j < cols; j++ {
					want.data[i*cols+j] += mask
				}
			}
			must(t, SoftmaxRows(want, want))

			dp, p := NewNormal(rng, 1, rows, cols), want
			wantDS := dp.Clone()
			for r := 0; r < rows; r++ {
				pr, dr := p.data[r*cols:][:cols], wantDS.data[r*cols:][:cols]
				var dot float64
				for c := range pr {
					dot += float64(float64(dr[c]) * float64(pr[c]))
				}
				for c := range pr {
					dr[c] = pr[c] * (dr[c] - float32(dot))
				}
			}
			wantDS.Scale(scale)

			for _, tier := range Tiers() {
				label := fmt.Sprintf("%dx%d tier %s", rows, cols, tier)
				WithTier(tier, func() {
					back, v := canaried(rows, cols)
					put(v, x)
					SoftmaxCausal(v, scale, mask)
					expectNaNWindow(t, back, want, "SoftmaxCausal "+label)

					back, v = canaried(rows, cols)
					put(v, dp)
					_, pv := canaried(rows, cols)
					put(pv, p)
					must(t, SoftmaxBackward(v, pv, scale))
					expectNaNWindow(t, back, wantDS, "SoftmaxBackward "+label)
				})
			}
		}
	}
	if err := SoftmaxBackward(New(2, 3).Window(0, 0, 2, 3), New(3, 3).Window(0, 0, 3, 3), 1); err == nil {
		t.Fatal("SoftmaxBackward accepted probabilities of another shape")
	}
}

// expectNaNWindow is expectWindow with NaN matching any NaN: which
// payload survives an operation on two NaNs is not pinned.
func expectNaNWindow(t *testing.T, back, want *Tensor, label string) {
	t.Helper()
	got := want.Clone()
	rows, cols := want.shape[0], want.shape[1]
	w := back.shape[1]
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g, wv := back.data[(r+1)*w+c+2], want.data[r*cols+c]
			if g != g && wv != wv {
				g = wv
			}
			got.data[r*cols+c] = g
		}
	}
	check := back.Clone()
	for r := 0; r < rows; r++ {
		copy(check.data[(r+1)*w+2:][:cols], got.data[r*cols:][:cols])
	}
	expectWindow(t, check, want, label)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
