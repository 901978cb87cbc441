// Package quant implements weight quantization for the shared base
// model: symmetric per-output-channel int8 and packed int4 storage
// with on-the-fly dequantization.
//
// The paper names quantization (QLoRA, GPTQ) as orthogonal to Menos —
// "these methods could also be applied to the shared model parameters"
// — and this package makes the combination concrete: a quantized
// frozen base shrinks the 𝕄 term by ~4×/8× while adapters stay fp32,
// exactly the QLoRA recipe, stacked on top of base-model sharing.
package quant

import (
	"errors"
	"fmt"
	"math"

	"menos/internal/tensor"
)

// ErrQuant is returned (wrapped) for invalid quantization inputs.
var ErrQuant = errors.New("quant: invalid input")

// Precision selects the stored bit width.
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

// Matrix is a quantized (rows, cols) weight matrix with one fp32 scale
// per output column (symmetric quantization; zero-point free).
type Matrix struct {
	rows, cols int
	prec       Precision
	data       []byte    // int8: one byte per value; int4: two values per byte
	scales     []float32 // per column
}

// QuantizeMatrix quantizes a rank-2 tensor.
func QuantizeMatrix(t *tensor.Tensor, prec Precision) (*Matrix, error) {
	if t.Rank() != 2 {
		return nil, fmt.Errorf("%w: rank-%d tensor", ErrQuant, t.Rank())
	}
	if prec != Int8 && prec != Int4 {
		return nil, fmt.Errorf("%w: precision %d", ErrQuant, int(prec))
	}
	rows, cols := t.Dim(0), t.Dim(1)
	m := &Matrix{rows: rows, cols: cols, prec: prec, scales: make([]float32, cols)}

	maxLevel := float64(127)
	if prec == Int4 {
		maxLevel = 7
	}
	// Per-column scales. An Inf or NaN weight is rejected with a typed
	// error rather than quantized: Inf would blow the column scale up
	// so every other weight rounds to zero, and NaN scales poison the
	// whole column — both silently, iterations away from the cause.
	for c := 0; c < cols; c++ {
		var maxAbs float64
		for r := 0; r < rows; r++ {
			f := float64(t.At(r, c))
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return nil, &NonFiniteError{Index: r*cols + c, Value: f}
			}
			v := math.Abs(f)
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			maxAbs = 1e-8
		}
		m.scales[c] = float32(maxAbs / maxLevel)
	}

	quantize := func(r, c int) int8 {
		q := math.Round(float64(t.At(r, c)) / float64(m.scales[c]))
		if q > maxLevel {
			q = maxLevel
		}
		if q < -maxLevel {
			q = -maxLevel
		}
		return int8(q)
	}

	switch prec {
	case Int8:
		m.data = make([]byte, rows*cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				m.data[r*cols+c] = byte(quantize(r, c))
			}
		}
	case Int4:
		m.data = make([]byte, (rows*cols+1)/2)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				idx := r*cols + c
				nibble := byte(quantize(r, c)+8) & 0x0F // bias to [0,15]
				if idx%2 == 0 {
					m.data[idx/2] |= nibble
				} else {
					m.data[idx/2] |= nibble << 4
				}
			}
		}
	}
	return m, nil
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// StorageBytes returns the quantized footprint including scales.
func (m *Matrix) StorageBytes() int64 {
	return int64(len(m.data)) + int64(len(m.scales))*4
}

// at returns the dequantized value at (r, c).
func (m *Matrix) at(r, c int) float32 {
	idx := r*m.cols + c
	var q int8
	switch m.prec {
	case Int8:
		q = int8(m.data[idx])
	case Int4:
		nibble := m.data[idx/2]
		if idx%2 == 1 {
			nibble >>= 4
		}
		q = int8(nibble&0x0F) - 8
	}
	return float32(q) * m.scales[c]
}

// Dequantize materializes the matrix as fp32.
func (m *Matrix) Dequantize() *tensor.Tensor {
	out := tensor.New(m.rows, m.cols)
	d := out.Data()
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			d[r*m.cols+c] = m.at(r, c)
		}
	}
	return out
}
