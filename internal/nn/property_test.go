package nn

import (
	"math"
	"testing"
	"testing/quick"

	"menos/internal/tensor"
)

// Property: a bias-free Linear is a linear map: f(x+y) == f(x) + f(y)
// and f(αx) == αf(x).
func TestLinearIsLinearProperty(t *testing.T) {
	f := func(seed uint64, alphaRaw int8) bool {
		rng := tensor.NewRNG(seed)
		in, out := 1+rng.Intn(6), 1+rng.Intn(6)
		l := NewLinear(rng, in, out, false)
		alpha := float32(alphaRaw) / 16

		x := tensor.NewNormal(rng, 1, 2, in)
		y := tensor.NewNormal(rng, 1, 2, in)

		sum := tensor.New(2, in)
		if err := tensor.Add(sum, x, y); err != nil {
			return false
		}
		fSum, err := l.Forward(sum, nil)
		if err != nil {
			return false
		}
		fx, err := l.Forward(x, nil)
		if err != nil {
			return false
		}
		fy, err := l.Forward(y, nil)
		if err != nil {
			return false
		}
		want := tensor.New(2, out)
		if err := tensor.Add(want, fx, fy); err != nil {
			return false
		}
		for i := range want.Data() {
			if math.Abs(float64(fSum.Data()[i]-want.Data()[i])) > 1e-3 {
				return false
			}
		}

		scaled := x.Clone()
		scaled.Scale(alpha)
		fScaled, err := l.Forward(scaled, nil)
		if err != nil {
			return false
		}
		fxScaled := fx.Clone()
		fxScaled.Scale(alpha)
		for i := range fScaled.Data() {
			if math.Abs(float64(fScaled.Data()[i]-fxScaled.Data()[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: cross-entropy gradient rows sum to zero (softmax gradient
// identity) and the loss is non-negative, for any logits and targets.
func TestCrossEntropyGradientIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		rows, vocab := 1+rng.Intn(5), 2+rng.Intn(10)
		logits := tensor.New(rows, vocab)
		logits.FillUniform(rng, -10, 10)
		targets := make([]int, rows)
		for i := range targets {
			targets[i] = rng.Intn(vocab)
		}
		loss, dlogits, err := CrossEntropy(logits, targets)
		if err != nil {
			return false
		}
		if loss < 0 || math.IsNaN(loss) {
			return false
		}
		for r := 0; r < rows; r++ {
			var sum float64
			for c := 0; c < vocab; c++ {
				sum += float64(dlogits.At(r, c))
			}
			if math.Abs(sum) > 1e-5 {
				return false
			}
			// Target entry has the only possible negative gradient.
			if dlogits.At(r, targets[r]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: optimizers are deterministic — two identically seeded
// parameter sets driven by identical gradients stay identical.
func TestOptimizerDeterminismProperty(t *testing.T) {
	f := func(seed uint64, adam bool) bool {
		build := func() (Param, Optimizer) {
			rng := tensor.NewRNG(seed)
			p := NewParam("p", tensor.NewNormal(rng, 1, 8))
			var opt Optimizer
			if adam {
				opt = NewAdam(0.01)
			} else {
				opt = NewSGD(0.01, 0.9)
			}
			return p, opt
		}
		p1, o1 := build()
		p2, o2 := build()
		gradRNG := tensor.NewRNG(seed ^ 0xabc)
		for step := 0; step < 5; step++ {
			g := tensor.NewNormal(gradRNG, 1, 8)
			if err := p1.Grad.CopyFrom(g); err != nil {
				return false
			}
			if err := p2.Grad.CopyFrom(g); err != nil {
				return false
			}
			if o1.Step([]Param{p1}) != nil || o2.Step([]Param{p2}) != nil {
				return false
			}
		}
		for i := range p1.Value.Data() {
			if p1.Value.Data()[i] != p2.Value.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LayerNorm's output is invariant to input shift and scale
// (for positive scales), the defining normalization property — up to the
// eps that regularizes the denominator. Scaling a row of variance v by s
// turns y = d/√(v+eps) into d/√(v+eps/s²), so the two outputs differ by
// the factor √((v+eps)/(v+eps/s²)): nothing for v ≫ eps, but more than
// any fixed tolerance once a generated row's variance comes within a few
// thousand eps of zero. The tolerance is that analytic term plus 1e-3
// for float32 rounding.
func TestLayerNormInvarianceProperty(t *testing.T) {
	f := func(seed uint64, shiftRaw int8, scaleRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		dim := 4 + rng.Intn(12)
		l := NewLayerNorm(dim)
		x := tensor.NewNormal(rng, 1, 2, dim)
		shift := float32(shiftRaw) / 4
		scale := 0.5 + float32(scaleRaw)/64

		y1, err := l.Forward(x, nil)
		if err != nil {
			return false
		}
		moved := x.Clone()
		for i := range moved.Data() {
			moved.Data()[i] = moved.Data()[i]*scale + shift
		}
		y2, err := l.Forward(moved, nil)
		if err != nil {
			return false
		}
		for r := 0; r < 2; r++ {
			row := x.Data()[r*dim : (r+1)*dim]
			var mean, v float64
			for _, e := range row {
				mean += float64(e)
			}
			mean /= float64(dim)
			for _, e := range row {
				v += (float64(e) - mean) * (float64(e) - mean)
			}
			v /= float64(dim)
			s2 := float64(scale) * float64(scale)
			epsShare := math.Abs(1 - math.Sqrt((v+normEps)/(v+normEps/s2)))
			for i := r * dim; i < (r+1)*dim; i++ {
				a, b := float64(y1.Data()[i]), float64(y2.Data()[i])
				if math.Abs(a-b) > 1e-3+math.Abs(a)*epsShare {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
