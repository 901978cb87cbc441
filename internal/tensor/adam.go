package tensor

import (
	"fmt"
	"math"
)

// AdamStep holds the scalars of one Adam step: the hyperparameters,
// the learning rate and the step's two bias corrections 1 − βᵗ.
type AdamStep struct {
	Beta1, Beta2, Eps, LR float64
	BC1, BC2              float64
}

// adamK is an AdamStep as the kernels read it: the float32 betas and
// their complements, then the float64 scalars. adam_amd64.s reads it
// by these offsets.
type adamK struct {
	b1, b2, c1, c2    float32
	bc1, bc2, lr, eps float64
}

// Update applies the step to one parameter: p its values, g its
// gradient, m and v its first and second moments, updated in place.
// Per element, in this order and each rounded as written:
//
//	m = float32(b1·m) + float32((1−b1)·g)
//	v = float32(b2·v) + float32(float32((1−b2)·g)·g)
//	p −= float32(lr·(m/bc1) / (√(v/bc2) + eps))
//
// with b1, b2 the betas rounded to float32 and the last line in
// float64. Each element is independent of every other, so its bits do
// not depend on which tier ran it (docs/NUMERICS.md, "Adam").
func (s AdamStep) Update(p, g, m, v *Tensor) error {
	n := len(p.data)
	if len(g.data) != n || len(m.data) != n || len(v.data) != n {
		return fmt.Errorf("%w: adam update of %v with grad %v, moments %v and %v",
			ErrShape, p.shape, g.shape, m.shape, v.shape)
	}
	b1, b2 := float32(s.Beta1), float32(s.Beta2)
	k := adamK{b1: b1, b2: b2, c1: 1 - b1, c2: 1 - b2, bc1: s.BC1, bc2: s.BC2, lr: s.LR, eps: s.Eps}
	adamRange(p.data, g.data, m.data, v.data, &k)
	return nil
}

// adamRange is the update loop: the AVX2 kernel when the CPU has it,
// else its portable twin.
func adamRange(p, g, m, v []float32, k *adamK) {
	if len(p) == 0 {
		return
	}
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	if haveAVX2 {
		adamAVX2(&p[0], &g[0], &m[0], &v[0], len(p), k)
		return
	}
	for i, gi := range g {
		mi := float32(k.b1*m[i]) + float32(k.c1*gi)
		vi := float32(k.b2*v[i]) + float32(float32(k.c2*gi)*gi)
		m[i], v[i] = mi, vi
		mHat := float64(mi) / k.bc1
		vHat := float64(vi) / k.bc2
		p[i] -= float32(k.lr * mHat / (math.Sqrt(vHat) + k.eps))
	}
}
