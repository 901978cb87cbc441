// Package quant holds Menos's two uses of reduced precision.
//
// Precision types the analytic base-quantization term: the paper
// names QLoRA/GPTQ-style weight quantization as orthogonal to Menos —
// "these methods could also be applied to the shared model
// parameters" — and memmodel.Workload.BaseQuant prices what an int8
// or int4 base would save in the 𝕄 term (experiments'
// ExtensionQuantization table). The TCP plane serves the base in fp32
// only; docs/PERFORMANCE.md ("Why the served base is fp32") has the
// measurement behind that.
//
// The activation wire codec (activation.go) packs the per-iteration
// tensors that cross the split boundary in fp16 or int8.
package quant

import (
	"errors"
	"fmt"
)

// ErrQuant is returned (wrapped) for invalid quantization inputs.
var ErrQuant = errors.New("quant: invalid input")

// Precision is a base-weight bit width, priced (not served) by the
// memory model.
type Precision int

// Supported precisions.
const (
	Int8 Precision = iota + 1
	Int4
)

// String returns the precision name.
func (p Precision) String() string {
	switch p {
	case Int8:
		return "int8"
	case Int4:
		return "int4"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// BytesPerParam returns the storage cost per scalar (excluding
// scales).
func (p Precision) BytesPerParam() float64 {
	switch p {
	case Int8:
		return 1
	case Int4:
		return 0.5
	default:
		return 4
	}
}
