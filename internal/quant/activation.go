package quant

import (
	"fmt"
	"math"

	"menos/internal/tensor"
)

// This file implements the activation wire codec: lossy fp16/int8
// packing for the per-iteration activation and gradient tensors that
// cross the split boundary (docs/WIRE.md). The codec runs on the hot
// path every iteration, so it is per-row (rows are contiguous in
// memory), allocation-lean, and parallelized over the tensor worker
// pool.
//
// The codec is symmetric and zero-point free: int8 stores
// round(v/scale) with one fp32 scale per row
// (scale = maxAbs/127), fp16 stores IEEE 754 binary16 with
// round-to-nearest-even. Non-finite inputs are rejected with
// NonFiniteError rather than encoded: an Inf/NaN activation is a
// training bug upstream, and silently squashing it into a saturated
// int8 would hide the blast site.

// Codec identifies an activation wire encoding. The zero value means
// "uncompressed fp32" — tensors ride the base frame payload exactly as
// they did before compression existed.
type Codec uint8

// Supported activation codecs. Wire values: the codec byte rides the
// frame extension tail, so these constants are protocol surface and
// must never be renumbered.
const (
	CodecFP32 Codec = 0 // uncompressed; nothing extra on the wire
	CodecFP16 Codec = 1 // IEEE 754 binary16, 2 bytes/value
	CodecInt8 Codec = 2 // symmetric int8, 1 byte/value + fp32 scale/row
)

// ParseCodec maps the -wire-compress flag spelling to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "off", "fp32", "none":
		return CodecFP32, nil
	case "fp16":
		return CodecFP16, nil
	case "int8":
		return CodecInt8, nil
	default:
		return 0, fmt.Errorf("%w: unknown codec %q (want off, fp16 or int8)", ErrQuant, s)
	}
}

// String returns the flag spelling.
func (c Codec) String() string {
	switch c {
	case CodecFP32:
		return "off"
	case CodecFP16:
		return "fp16"
	case CodecInt8:
		return "int8"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// BytesPerValue returns the payload bytes per scalar, excluding
// per-row scales.
func (c Codec) BytesPerValue() int {
	switch c {
	case CodecFP16:
		return 2
	case CodecInt8:
		return 1
	default:
		return 4
	}
}

// WireRatio estimates on-wire payload bytes as a fraction of the fp32
// payload, ignoring the per-row scale overhead (4 bytes per row
// against lastDim*4 payload bytes — under 1% for any real hidden
// size). The simulator uses it to model compressed transfers.
func (c Codec) WireRatio() float64 {
	return float64(c.BytesPerValue()) / 4
}

// Packed is a codec-compressed tensor ready for the wire. Rows are
// the product of all leading dims; the last dim is the row width, so
// a (batch, seq, hidden) activation packs as batch*seq rows of hidden
// values — one scale per token position, which tracks the magnitude
// spread across a sequence far better than one scale per tensor.
type Packed struct {
	Codec  Codec
	Shape  []int
	Scales []float32 // per row; int8 only, nil for fp16
	Data   []byte
}

// NonFiniteError reports an Inf or NaN encountered while quantizing.
// It unwraps to ErrQuant.
type NonFiniteError struct {
	Index int     // flat element index in the source tensor
	Value float64 // the offending value
}

// Error implements error.
func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("quant: non-finite value %v at element %d", e.Value, e.Index)
}

// Unwrap ties the typed error into the package sentinel so callers can
// match either errors.Is(err, ErrQuant) or errors.As for the detail.
func (e *NonFiniteError) Unwrap() error { return ErrQuant }

// Pack compresses t with the given codec. CodecFP32 returns nil — the
// caller should send the tensor uncompressed. The returned Packed
// aliases nothing in t.
func Pack(t *tensor.Tensor, c Codec) (*Packed, error) {
	if c == CodecFP32 {
		return nil, nil
	}
	if t == nil {
		return nil, fmt.Errorf("%w: nil tensor", ErrQuant)
	}
	if c != CodecFP16 && c != CodecInt8 {
		return nil, fmt.Errorf("%w: codec %d", ErrQuant, int(c))
	}
	src := t.Data()
	// Reject Inf/NaN up front, before any worker touches the data:
	// quantizing garbage would propagate silently (int8 saturates,
	// fp16 rounds NaN payloads) and surface iterations later as a
	// mysteriously diverged loss.
	for i, v := range src {
		if f := float64(v); math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, &NonFiniteError{Index: i, Value: f}
		}
	}
	shape := t.Shape()
	cols := 1
	if len(shape) > 0 {
		cols = shape[len(shape)-1]
	}
	if cols <= 0 {
		return nil, fmt.Errorf("%w: last dim %d", ErrQuant, cols)
	}
	rows := len(src) / cols
	p := &Packed{Codec: c, Shape: append([]int(nil), shape...)}
	switch c {
	case CodecFP16:
		p.Data = make([]byte, 2*len(src))
		tensor.ParallelFor(rows, cols, func(lo, hi int) {
			for i := lo * cols; i < hi*cols; i++ {
				h := Float16FromFloat32(src[i])
				p.Data[2*i] = byte(h)
				p.Data[2*i+1] = byte(h >> 8)
			}
		})
	case CodecInt8:
		p.Data = make([]byte, len(src))
		p.Scales = make([]float32, rows)
		tensor.ParallelFor(rows, cols, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				row := src[r*cols : (r+1)*cols]
				var maxAbs float64
				for _, v := range row {
					if a := math.Abs(float64(v)); a > maxAbs {
						maxAbs = a
					}
				}
				if maxAbs == 0 {
					maxAbs = 1e-8
				}
				scale := float32(maxAbs / 127)
				p.Scales[r] = scale
				for j, v := range row {
					q := math.Round(float64(v) / float64(scale))
					if q > 127 {
						q = 127
					}
					if q < -127 {
						q = -127
					}
					p.Data[r*cols+j] = byte(int8(q))
				}
			}
		})
	}
	return p, nil
}

// Unpack decompresses a Packed back to fp32, validating every length
// against the declared shape — Packed structs arrive off the wire, so
// nothing about them is trusted.
func (p *Packed) Unpack() (*tensor.Tensor, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil packed tensor", ErrQuant)
	}
	numel := 1
	cols := 1
	for i, d := range p.Shape {
		if d <= 0 || numel > MaxPackedElems/d {
			return nil, fmt.Errorf("%w: packed shape %v", ErrQuant, p.Shape)
		}
		numel *= d
		if i == len(p.Shape)-1 {
			cols = d
		}
	}
	rows := numel / cols
	switch p.Codec {
	case CodecFP16:
		if len(p.Data) != 2*numel || len(p.Scales) != 0 {
			return nil, fmt.Errorf("%w: fp16 payload %dB/%d scales for %v", ErrQuant, len(p.Data), len(p.Scales), p.Shape)
		}
	case CodecInt8:
		if len(p.Data) != numel || len(p.Scales) != rows {
			return nil, fmt.Errorf("%w: int8 payload %dB/%d scales for %v", ErrQuant, len(p.Data), len(p.Scales), p.Shape)
		}
	default:
		return nil, fmt.Errorf("%w: codec %d", ErrQuant, int(p.Codec))
	}
	out := make([]float32, numel)
	switch p.Codec {
	case CodecFP16:
		tensor.ParallelFor(rows, cols, func(lo, hi int) {
			for i := lo * cols; i < hi*cols; i++ {
				h := uint16(p.Data[2*i]) | uint16(p.Data[2*i+1])<<8
				out[i] = Float16ToFloat32(h)
			}
		})
	case CodecInt8:
		tensor.ParallelFor(rows, cols, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				scale := p.Scales[r]
				for j := 0; j < cols; j++ {
					out[r*cols+j] = float32(int8(p.Data[r*cols+j])) * scale
				}
			}
		})
	}
	return tensor.FromSlice(out, p.Shape...)
}

// MaxPackedElems bounds a packed tensor's element count; anything
// larger than the frame limit allows is hostile input.
const MaxPackedElems = 512 << 20

// WireBytes returns the on-wire payload cost: packed data plus
// per-row scales (shape ints and the codec byte are noise).
func (p *Packed) WireBytes() int64 {
	if p == nil {
		return 0
	}
	return int64(len(p.Data)) + 4*int64(len(p.Scales))
}

// Float16FromFloat32 converts to IEEE 754 binary16 with
// round-to-nearest-even, clamping overflow to ±MaxFloat16 rather than
// producing Inf — a saturated activation degrades gracefully, an Inf
// poisons every downstream accumulation.
func Float16FromFloat32(f float32) uint16 {
	const maxFinite = 65504
	if f > maxFinite {
		f = maxFinite
	}
	if f < -maxFinite {
		f = -maxFinite
	}
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff
	switch {
	case exp >= 0x1f:
		// Unreachable after the clamp for finite inputs; Pack rejects
		// non-finite values before conversion.
		return sign | 0x7bff
	case exp <= 0:
		// Subnormal or underflow-to-zero: shift the mantissa (with its
		// implicit leading 1) into place and round to nearest even.
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		v := mant >> shift
		if rem := mant & (1<<shift - 1); rem > half || (rem == half && v&1 == 1) {
			v++
		}
		return sign | uint16(v)
	default:
		v := uint16(exp)<<10 | uint16(mant>>13)
		if rem := mant & 0x1fff; rem > 0x1000 || (rem == 0x1000 && v&1 == 1) {
			v++ // carries into the exponent correctly by construction
		}
		return sign | v
	}
}

// Float16ToFloat32 converts an IEEE 754 binary16 back to float32
// (exact — every half value is representable).
func Float16ToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize by shifting the mantissa up.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (mant&0x3ff)<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}
