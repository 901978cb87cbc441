package nn

import (
	"math"
	"testing"

	"menos/internal/tensor"
)

// numericGrad computes the central-difference gradient of loss() with
// respect to every element of x.
func numericGrad(t *testing.T, x *tensor.Tensor, loss func() float64) *tensor.Tensor {
	t.Helper()
	const h = 1e-3
	g := tensor.New(x.Shape()...)
	data := x.Data()
	for i := range data {
		orig := data[i]
		data[i] = orig + h
		up := loss()
		data[i] = orig - h
		down := loss()
		data[i] = orig
		g.Data()[i] = float32((up - down) / (2 * h))
	}
	return g
}

func assertGradClose(t *testing.T, name string, analytic, numeric *tensor.Tensor, tol float64) {
	t.Helper()
	if analytic.Len() != numeric.Len() {
		t.Fatalf("%s: grad length %d != %d", name, analytic.Len(), numeric.Len())
	}
	for i := range analytic.Data() {
		a, n := float64(analytic.Data()[i]), float64(numeric.Data()[i])
		diff := math.Abs(a - n)
		scale := math.Max(1, math.Max(math.Abs(a), math.Abs(n)))
		if diff/scale > tol {
			t.Fatalf("%s: grad[%d] analytic %v vs numeric %v (rel %v)", name, i, a, n, diff/scale)
		}
	}
}

// sumLoss is a simple differentiable scalar readout: sum of elements.
// Its gradient with respect to the tensor is all-ones, so backward
// passes can be invoked with a ones tensor as dy.
func sumLoss(tn *tensor.Tensor) float64 {
	return tn.Sum()
}

func ones(shape ...int) *tensor.Tensor {
	o := tensor.New(shape...)
	o.Fill(1)
	return o
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(11)
	l := NewLinear(rng, 4, 3, true)
	x := tensor.NewNormal(rng, 1, 5, 4)

	forward := func() float64 {
		y, err := l.Forward(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sumLoss(y)
	}

	cache := &LinearCache{}
	y, err := l.Forward(x, cache)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := l.Backward(cache, ones(y.Shape()...))
	if err != nil {
		t.Fatal(err)
	}

	assertGradClose(t, "dW", l.W.Grad, numericGrad(t, l.W.Value, forward), 2e-2)
	assertGradClose(t, "dB", l.B.Grad, numericGrad(t, l.B.Value, forward), 2e-2)
	assertGradClose(t, "dx", dx, numericGrad(t, x, forward), 2e-2)
}

// directionalGradCheck compares the analytic gradient projected onto a
// random direction against a central-difference estimate of the loss
// along that direction. One direction instead of one probe per element
// keeps the check affordable at the tile-boundary shapes below, where
// full numericGrad would need tens of thousands of forward passes.
func directionalGradCheck(t *testing.T, name string, rng *tensor.RNG, x, analytic *tensor.Tensor, loss func() float64, tol float64) {
	t.Helper()
	const h = 1e-3
	d := tensor.NewNormal(rng, 1, x.Shape()...)
	xd, dd := x.Data(), d.Data()
	orig := make([]float32, len(xd))
	copy(orig, xd)

	for i := range xd {
		xd[i] = orig[i] + h*dd[i]
	}
	up := loss()
	for i := range xd {
		xd[i] = orig[i] - h*dd[i]
	}
	down := loss()
	copy(xd, orig)

	numeric := (up - down) / (2 * h)
	var dot float64
	for i, g := range analytic.Data() {
		dot += float64(g) * float64(dd[i])
	}
	diff := math.Abs(dot - numeric)
	scale := math.Max(1, math.Max(math.Abs(dot), math.Abs(numeric)))
	if diff/scale > tol {
		t.Fatalf("%s: directional derivative analytic %v vs numeric %v (rel %v)", name, dot, numeric, diff/scale)
	}
}

// TestLinearGradCheckTileBoundaries pushes the gradient check through
// shapes that straddle the 4-row register tile of the matmul kernels
// (63/64/65 rows) with odd in/out widths, at parallelism > 1, so a
// tiling or partitioning bug in any of the four matmul variants used by
// Linear's forward/backward shows up as a wrong gradient.
func TestLinearGradCheckTileBoundaries(t *testing.T) {
	prevPar := tensor.Parallelism()
	defer tensor.SetParallelism(prevPar)
	tensor.SetParallelism(4)

	const in, out = 33, 19 // odd k and n straddle the column tiles
	for _, rows := range []int{63, 64, 65} {
		rng := tensor.NewRNG(uint64(23 + rows))
		l := NewLinear(rng, in, out, true)
		x := tensor.NewNormal(rng, 1, rows, in)

		forward := func() float64 {
			y, err := l.Forward(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sumLoss(y)
		}

		cache := &LinearCache{}
		y, err := l.Forward(x, cache)
		if err != nil {
			t.Fatal(err)
		}
		dx, err := l.Backward(cache, ones(y.Shape()...))
		if err != nil {
			t.Fatal(err)
		}

		directionalGradCheck(t, "dx", rng, x, dx, forward, 2e-2)
		directionalGradCheck(t, "dW", rng, l.W.Value, l.W.Grad, forward, 2e-2)
		directionalGradCheck(t, "dB", rng, l.B.Value, l.B.Grad, forward, 2e-2)
	}
}

func TestLinearFrozenSkipsWeightGrads(t *testing.T) {
	rng := tensor.NewRNG(12)
	l := NewLinear(rng, 3, 3, true)
	l.Frozen = true
	x := tensor.NewNormal(rng, 1, 2, 3)
	cache := &LinearCache{}
	y, err := l.Forward(x, cache)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := l.Backward(cache, ones(y.Shape()...))
	if err != nil {
		t.Fatal(err)
	}
	if l.W.Grad.MaxAbs() != 0 || l.B.Grad.MaxAbs() != 0 {
		t.Fatal("frozen layer accumulated weight gradients")
	}
	if dx.MaxAbs() == 0 {
		t.Fatal("frozen layer should still propagate dx")
	}
	if len(l.Params()) != 0 {
		t.Fatal("frozen layer exposes trainable params")
	}
}

func TestLinearBackwardWithoutCache(t *testing.T) {
	rng := tensor.NewRNG(13)
	l := NewLinear(rng, 2, 2, false)
	if _, err := l.Backward(nil, ones(1, 2)); err == nil {
		t.Fatal("Backward with nil cache succeeded")
	}
	if _, err := l.Backward(&LinearCache{}, ones(1, 2)); err == nil {
		t.Fatal("Backward with empty cache succeeded")
	}
}

func TestLinearNoBias(t *testing.T) {
	rng := tensor.NewRNG(14)
	l := NewLinear(rng, 2, 3, false)
	if l.B.Value != nil {
		t.Fatal("no-bias layer has bias")
	}
	if got := len(l.Params()); got != 1 {
		t.Fatalf("Params() len = %d, want 1", got)
	}
	x := tensor.NewNormal(rng, 1, 1, 2)
	if _, err := l.Forward(x, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(15)
	e := &Embedding{Table: NewParam("table", tensor.NewNormal(rng, 0.02, 10, 4))}
	ids := []int{3, 7, 3}
	cache := &EmbeddingCache{}
	out, err := e.Forward(ids, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 3 || out.Dim(1) != 4 {
		t.Fatalf("embedding out shape %v", out.Shape())
	}
	// Row 0 and row 2 look up the same id.
	for c := 0; c < 4; c++ {
		if out.At(0, c) != out.At(2, c) {
			t.Fatal("same id produced different embeddings")
		}
	}
	dy := ones(3, 4)
	if err := e.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	// id 3 appears twice -> its grad row should be 2.
	if e.Table.Grad.At(3, 0) != 2 || e.Table.Grad.At(7, 0) != 1 {
		t.Fatalf("scatter-add grads: %v, %v", e.Table.Grad.At(3, 0), e.Table.Grad.At(7, 0))
	}
	if e.Table.Grad.At(0, 0) != 0 {
		t.Fatal("untouched id has gradient")
	}
}

func TestEmbeddingOutOfRange(t *testing.T) {
	rng := tensor.NewRNG(16)
	e := &Embedding{Table: NewParam("table", tensor.NewNormal(rng, 0.02, 4, 2))}
	if _, err := e.Forward([]int{4}, nil); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := e.Forward([]int{-1}, nil); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	rng := tensor.NewRNG(17)
	l := NewLayerNorm(5)
	l.Gamma.Value.FillUniform(rng, 0.5, 1.5)
	l.Beta.Value.FillUniform(rng, -0.5, 0.5)
	x := tensor.NewNormal(rng, 1, 3, 5)

	forward := func() float64 {
		y, err := l.Forward(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Weighted sum keeps the loss sensitive to normalization.
		var s float64
		for i, v := range y.Data() {
			s += float64(v) * float64(i%3+1)
		}
		return s
	}
	dy := tensor.New(3, 5)
	for i := range dy.Data() {
		dy.Data()[i] = float32(i%3 + 1)
	}

	cache := &LayerNormCache{}
	if _, err := l.Forward(x, cache); err != nil {
		t.Fatal(err)
	}
	dx, err := l.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	assertGradClose(t, "dx", dx, numericGrad(t, x, forward), 2e-2)
	assertGradClose(t, "dgamma", l.Gamma.Grad, numericGrad(t, l.Gamma.Value, forward), 2e-2)
	assertGradClose(t, "dbeta", l.Beta.Grad, numericGrad(t, l.Beta.Value, forward), 2e-2)
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := tensor.NewRNG(18)
	l := NewLayerNorm(64)
	x := tensor.NewNormal(rng, 5, 4, 64)
	y, err := l.Forward(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		var mean, ms float64
		for c := 0; c < 64; c++ {
			v := float64(y.At(r, c))
			mean += v
			ms += v * v
		}
		mean /= 64
		variance := ms/64 - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %v", r, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("row %d variance %v", r, variance)
		}
	}
}

func TestRMSNormGradCheck(t *testing.T) {
	rng := tensor.NewRNG(19)
	l := NewRMSNorm(4)
	l.Gamma.Value.FillUniform(rng, 0.5, 1.5)
	x := tensor.NewNormal(rng, 1, 3, 4)

	forward := func() float64 {
		y, err := l.Forward(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for i, v := range y.Data() {
			s += float64(v) * float64(i%2+1)
		}
		return s
	}
	dy := tensor.New(3, 4)
	for i := range dy.Data() {
		dy.Data()[i] = float32(i%2 + 1)
	}

	cache := &RMSNormCache{}
	if _, err := l.Forward(x, cache); err != nil {
		t.Fatal(err)
	}
	dx, err := l.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	assertGradClose(t, "dx", dx, numericGrad(t, x, forward), 2e-2)
	assertGradClose(t, "dgamma", l.Gamma.Grad, numericGrad(t, l.Gamma.Value, forward), 2e-2)
}

func TestGELUGradCheck(t *testing.T) {
	rng := tensor.NewRNG(20)
	x := tensor.NewNormal(rng, 1.5, 2, 6)
	forward := func() float64 {
		return sumLoss(GELUScratch(nil, x, nil))
	}
	cache := &ActCache{}
	y := GELUScratch(nil, x, cache)
	dx, err := GELUBackwardScratch(nil, cache, ones(y.Shape()...))
	if err != nil {
		t.Fatal(err)
	}
	assertGradClose(t, "gelu dx", dx, numericGrad(t, x, forward), 2e-2)
}

func TestSiLUGradCheck(t *testing.T) {
	rng := tensor.NewRNG(21)
	x := tensor.NewNormal(rng, 1.5, 2, 6)
	forward := func() float64 {
		return sumLoss(SiLUScratch(nil, x, nil))
	}
	cache := &ActCache{}
	y := SiLUScratch(nil, x, cache)
	dx, err := SiLUBackwardScratch(nil, cache, ones(y.Shape()...))
	if err != nil {
		t.Fatal(err)
	}
	assertGradClose(t, "silu dx", dx, numericGrad(t, x, forward), 2e-2)
}

func TestActivationShapes(t *testing.T) {
	x := ones(2, 3)
	if y := GELUScratch(nil, x, nil); !y.SameShape(x) {
		t.Fatal("GELU changed shape")
	}
	if y := SiLUScratch(nil, x, nil); !y.SameShape(x) {
		t.Fatal("SiLU changed shape")
	}
	// GELU(0)=0, SiLU(0)=0.
	z := tensor.New(1, 1)
	if GELUScratch(nil, z, nil).At(0, 0) != 0 || SiLUScratch(nil, z, nil).At(0, 0) != 0 {
		t.Fatal("activation at 0 is not 0")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.New(2, 4)
	loss, dlogits, err := CrossEntropy(logits, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform CE loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero.
	for r := 0; r < 2; r++ {
		var s float64
		for c := 0; c < 4; c++ {
			s += float64(dlogits.At(r, c))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("dlogits row %d sums to %v", r, s)
		}
	}
	// Target entry has negative gradient.
	if dlogits.At(0, 1) >= 0 {
		t.Fatal("target gradient not negative")
	}
}

func TestCrossEntropyGradCheck(t *testing.T) {
	rng := tensor.NewRNG(22)
	logits := tensor.NewNormal(rng, 1, 3, 5)
	targets := []int{0, 4, 2}
	forward := func() float64 {
		loss, _, err := CrossEntropy(logits, targets)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	_, dlogits, err := CrossEntropy(logits, targets)
	if err != nil {
		t.Fatal(err)
	}
	assertGradClose(t, "dlogits", dlogits, numericGrad(t, logits, forward), 2e-2)
}

func TestCrossEntropyIgnoreIndex(t *testing.T) {
	logits := tensor.New(3, 4)
	logits.Set(10, 0, 2) // confident correct prediction at row 0
	loss, dlogits, err := CrossEntropy(logits, []int{2, IgnoreIndex, IgnoreIndex})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Fatalf("confident prediction loss = %v", loss)
	}
	// Ignored rows have zero grad.
	for c := 0; c < 4; c++ {
		if dlogits.At(1, c) != 0 || dlogits.At(2, c) != 0 {
			t.Fatal("ignored row has gradient")
		}
	}
}

func TestCrossEntropyAllIgnored(t *testing.T) {
	logits := tensor.New(2, 3)
	loss, dlogits, err := CrossEntropy(logits, []int{IgnoreIndex, IgnoreIndex})
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 || dlogits.MaxAbs() != 0 {
		t.Fatal("all-ignored batch produced loss or grads")
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	logits := tensor.New(2, 3)
	if _, _, err := CrossEntropy(logits, []int{0}); err == nil {
		t.Fatal("row/target mismatch accepted")
	}
	if _, _, err := CrossEntropy(logits, []int{0, 5}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestPerplexity(t *testing.T) {
	if p := Perplexity(0); p != 1 {
		t.Fatalf("Perplexity(0) = %v", p)
	}
	if p := Perplexity(math.Log(40)); math.Abs(p-40) > 1e-9 {
		t.Fatalf("Perplexity(ln40) = %v", p)
	}
}
