package nn

import (
	"fmt"
	"math"

	"menos/internal/tensor"
)

// Optimizer updates trainable parameters from their accumulated
// gradients. Implementations hold per-parameter state internally, keyed
// by parameter identity, matching the paper's optimizer-state term 𝕆.
type Optimizer interface {
	// Step applies one update using the current gradients, then the
	// caller typically zeroes gradients for the next accumulation.
	Step(params []Param) error
}

// SnapshottableOptimizer exposes the per-parameter state an optimizer
// keeps between steps, so a checkpoint (or a live migration) can carry
// the full training state: a restored session must resume bit-exactly,
// which for Adam means both moment buffers and the bias-correction
// step count travel with the adapter weights.
type SnapshottableOptimizer interface {
	Optimizer
	// StateSlots returns the optimizer's state tensors for p in a fixed
	// order (Adam: first and second moments; SGD: velocity when
	// momentum is enabled). Absent slots are created zeroed — identical
	// to the lazy initialization Step performs — so a restore can write
	// into them before the first step.
	StateSlots(p Param) []*tensor.Tensor
	// StepCount is the number of Step calls applied so far (Adam bias
	// correction depends on it; SGD reports it for symmetry).
	StepCount() int64
	// SetStepCount overwrites the step counter during a restore.
	SetStepCount(n int64)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	step     int64
	velocity map[*tensor.Tensor]*tensor.Tensor
}

var (
	_ Optimizer              = (*SGD)(nil)
	_ SnapshottableOptimizer = (*SGD)(nil)
)

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{
		LR:       lr,
		Momentum: momentum,
		velocity: make(map[*tensor.Tensor]*tensor.Tensor),
	}
}

// Step applies v = mu*v + g; p -= lr*v (or p -= lr*g without momentum).
func (o *SGD) Step(params []Param) error {
	o.step++
	for _, p := range params {
		if p.Value == nil || p.Grad == nil {
			return fmt.Errorf("sgd: parameter %q has nil value or grad", p.Name)
		}
		if o.Momentum == 0 {
			if err := tensor.AXPY(float32(-o.LR), p.Grad, p.Value); err != nil {
				return fmt.Errorf("sgd step %q: %w", p.Name, err)
			}
			continue
		}
		v, ok := o.velocity[p.Value]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			o.velocity[p.Value] = v
		}
		vd, gd, pd := v.Data(), p.Grad.Data(), p.Value.Data()
		mu, lr := float32(o.Momentum), float32(o.LR)
		for i := range vd {
			vd[i] = float32(mu*vd[i]) + gd[i]
			pd[i] -= float32(lr * vd[i])
		}
	}
	return nil
}

// StateSlots implements SnapshottableOptimizer: the velocity buffer
// when momentum is enabled, nothing otherwise.
func (o *SGD) StateSlots(p Param) []*tensor.Tensor {
	if o.Momentum == 0 || p.Value == nil {
		return nil
	}
	v, ok := o.velocity[p.Value]
	if !ok {
		v = tensor.New(p.Value.Shape()...)
		o.velocity[p.Value] = v
	}
	return []*tensor.Tensor{v}
}

// StepCount implements SnapshottableOptimizer.
func (o *SGD) StepCount() int64 { return o.step }

// SetStepCount implements SnapshottableOptimizer.
func (o *SGD) SetStepCount(n int64) { o.step = n }

// Adam implements the Adam optimizer with bias correction; the default
// hyperparameters match PyTorch's.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64 // decoupled (AdamW-style) when non-zero

	step int64
	m    map[*tensor.Tensor]*tensor.Tensor
	v    map[*tensor.Tensor]*tensor.Tensor
}

var (
	_ Optimizer              = (*Adam)(nil)
	_ SnapshottableOptimizer = (*Adam)(nil)
)

// NewAdam creates an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*tensor.Tensor]*tensor.Tensor),
		v:     make(map[*tensor.Tensor]*tensor.Tensor),
	}
}

// Step applies one Adam update.
func (o *Adam) Step(params []Param) error {
	o.step++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for _, p := range params {
		if p.Value == nil || p.Grad == nil {
			return fmt.Errorf("adam: parameter %q has nil value or grad", p.Name)
		}
		m, ok := o.m[p.Value]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			o.m[p.Value] = m
			o.v[p.Value] = tensor.New(p.Value.Shape()...)
		}
		v := o.v[p.Value]
		md, vd, gd, pd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
		b1, b2 := float32(o.Beta1), float32(o.Beta2)
		for i := range md {
			g := gd[i]
			md[i] = float32(b1*md[i]) + float32((1-b1)*g)
			vd[i] = float32(b2*vd[i]) + float32((1-b2)*g*g)
			mHat := float64(md[i]) / bc1
			vHat := float64(vd[i]) / bc2
			upd := o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
			if o.WeightDecay != 0 {
				upd += float64(o.LR * o.WeightDecay * float64(pd[i]))
			}
			pd[i] -= float32(upd)
		}
	}
	return nil
}

// StateSlots implements SnapshottableOptimizer: the first and second
// moment buffers, in that order.
func (o *Adam) StateSlots(p Param) []*tensor.Tensor {
	if p.Value == nil {
		return nil
	}
	m, ok := o.m[p.Value]
	if !ok {
		m = tensor.New(p.Value.Shape()...)
		o.m[p.Value] = m
		o.v[p.Value] = tensor.New(p.Value.Shape()...)
	}
	return []*tensor.Tensor{m, o.v[p.Value]}
}

// StepCount implements SnapshottableOptimizer.
func (o *Adam) StepCount() int64 { return o.step }

// SetStepCount implements SnapshottableOptimizer.
func (o *Adam) SetStepCount(n int64) { o.step = n }
