package nn

import (
	"fmt"
	"math"

	"menos/internal/tensor"
)

// Optimizer updates trainable parameters from their accumulated
// gradients. Adam is the one implementation.
type Optimizer interface {
	// Step applies one update using the current gradients, then the
	// caller typically zeroes gradients for the next accumulation.
	Step(params []Param) error
}

// Adam's hyperparameters, PyTorch's defaults. They are float64
// constants: tensor.AdamStep rounds the betas to float32.
const (
	beta1 float64 = 0.9
	beta2 float64 = 0.999
	eps   float64 = 1e-8
)

// ValidateLR reports whether lr can be a learning rate: finite and not
// negative. Zero passes, for callers where it selects their default.
func ValidateLR(lr float64) error {
	if math.IsNaN(lr) || math.IsInf(lr, 0) || lr < 0 {
		return fmt.Errorf("learning rate %v is not finite and non-negative", lr)
	}
	return nil
}

// Adam implements the Adam optimizer with bias correction, the
// optimizer-state term 𝕆 of §2.3: two moment buffers per parameter,
// keyed by parameter identity, and a step count. A checkpoint (or a
// live migration) carries all three, so a restored session resumes
// bit-exactly.
type Adam struct {
	lr float64

	step int64
	m    map[*tensor.Tensor]*tensor.Tensor
	v    map[*tensor.Tensor]*tensor.Tensor
}

var _ Optimizer = (*Adam)(nil)

// NewAdam creates an Adam optimizer with learning rate lr.
func NewAdam(lr float64) *Adam {
	return &Adam{
		lr: lr,
		m:  make(map[*tensor.Tensor]*tensor.Tensor),
		v:  make(map[*tensor.Tensor]*tensor.Tensor),
	}
}

// Step applies one Adam update, tensor.AdamStep's per-element rule.
func (o *Adam) Step(params []Param) error {
	o.step++
	step := tensor.AdamStep{
		Beta1: beta1, Beta2: beta2, Eps: eps, LR: o.lr,
		BC1: 1 - math.Pow(beta1, float64(o.step)),
		BC2: 1 - math.Pow(beta2, float64(o.step)),
	}
	for _, p := range params {
		if p.Value == nil || p.Grad == nil {
			return fmt.Errorf("adam: parameter %q has nil value or grad", p.Name)
		}
		m, v := o.moments(p)
		if err := step.Update(p.Value, p.Grad, m, v); err != nil {
			return fmt.Errorf("adam: parameter %q: %w", p.Name, err)
		}
	}
	return nil
}

// StateSlots returns p's first and second moment buffers, in that
// order. Absent buffers are created zeroed — identical to the lazy
// initialization Step performs — so a restore can write into them
// before the first step.
func (o *Adam) StateSlots(p Param) []*tensor.Tensor {
	m, v := o.moments(p)
	return []*tensor.Tensor{m, v}
}

// moments returns p's moment buffers, creating them zeroed on first use.
func (o *Adam) moments(p Param) (m, v *tensor.Tensor) {
	m, ok := o.m[p.Value]
	if !ok {
		m = tensor.New(p.Value.Shape()...)
		o.m[p.Value] = m
		o.v[p.Value] = tensor.New(p.Value.Shape()...)
	}
	return m, o.v[p.Value]
}

// StepCount is the number of Step calls applied so far, which Adam's
// bias correction depends on.
func (o *Adam) StepCount() int64 { return o.step }

// SetStepCount overwrites the step counter during a restore.
func (o *Adam) SetStepCount(n int64) { o.step = n }
