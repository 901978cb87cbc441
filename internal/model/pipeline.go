package model

import (
	"fmt"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// StepResult reports one optimization step's diagnostics.
type StepResult struct {
	Loss           float64
	ActivationByte int64 // total retained intermediate results (𝕀)
}

// LossAndGrad runs a full local forward and backward pass over the
// whole model: the single-device fine-tuning baseline the paper's
// convergence figures (Fig. 8, Fig. 9) compare against. Gradients are
// accumulated into whatever parameters are trainable (for adapter-based
// fine-tuning, the adapters).
func (t *Transformer) LossAndGrad(ids, targets []int, batch, seq int) (StepResult, error) {
	if len(ids) != batch*seq || len(targets) != batch*seq {
		return StepResult{}, fmt.Errorf("loss: %d ids, %d targets for batch %d x seq %d: %w",
			len(ids), len(targets), batch, seq, tensor.ErrShape)
	}
	input, body, output, err := t.Split(DefaultCut)
	if err != nil {
		return StepResult{}, err
	}
	xc, inCache, err := input.Forward(ids, batch, seq, true)
	if err != nil {
		return StepResult{}, err
	}
	xs, bodyCache, err := body.Forward(xc, batch, seq, true)
	if err != nil {
		return StepResult{}, err
	}
	logits, outCache, err := output.Forward(xs, true)
	if err != nil {
		return StepResult{}, err
	}
	loss, dlogits, err := nn.CrossEntropyScratch(t.scratch, logits, targets)
	if err != nil {
		return StepResult{}, err
	}
	t.scratch.Put(logits)
	actBytes := inCache.Bytes() + bodyCache.Bytes() + outCache.Bytes()

	gc, err := output.Backward(outCache, dlogits)
	if err != nil {
		return StepResult{}, err
	}
	t.scratch.Put(dlogits, xs)
	gs, err := body.Backward(bodyCache, gc)
	if err != nil {
		return StepResult{}, err
	}
	t.scratch.Put(gc, xc)
	if err := input.Backward(inCache, gs); err != nil {
		return StepResult{}, err
	}
	t.scratch.Put(gs)
	return StepResult{Loss: loss, ActivationByte: actBytes}, nil
}

// Loss runs a no-grad forward pass and returns the mean cross-entropy,
// used for evaluation.
func (t *Transformer) Loss(ids, targets []int, batch, seq int) (float64, error) {
	input, body, output, err := t.Split(DefaultCut)
	if err != nil {
		return 0, err
	}
	xc, _, err := input.Forward(ids, batch, seq, false)
	if err != nil {
		return 0, err
	}
	xs, _, err := body.Forward(xc, batch, seq, false)
	if err != nil {
		return 0, err
	}
	t.scratch.Put(xc)
	logits, _, err := output.Forward(xs, false)
	if err != nil {
		return 0, err
	}
	t.scratch.Put(xs)
	loss, dlogits, err := nn.CrossEntropyScratch(t.scratch, logits, targets)
	t.scratch.Put(logits, dlogits)
	return loss, err
}
