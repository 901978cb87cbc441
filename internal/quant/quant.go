// Package quant is the activation wire codec (activation.go): it packs
// the per-iteration tensors that cross the split boundary in fp16 or
// int8.
//
// The shared base is served, and priced by memmodel, in fp32 only. The
// paper names QLoRA/GPTQ-style base quantization as orthogonal to
// Menos and does not evaluate it; docs/PERFORMANCE.md ("Why the served
// base is fp32") has the measurement behind serving fp32.
package quant

import "errors"

// ErrQuant is returned (wrapped) for invalid quantization inputs.
var ErrQuant = errors.New("quant: invalid input")
