package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// Session snapshot format: the full server-side training state of one
// client — adapter parameter values, accumulated gradients, and the
// optimizer's per-parameter slots plus step count. Unlike the plain
// parameter checkpoint (Save/Load), restoring a session snapshot
// resumes training bit-exactly: mid-accumulation gradients and Adam's
// bias-correction counter travel with the weights, which is what live
// migration between servers requires.
const (
	sessionMagic   uint32 = 0x4d53534e // "MSSN"
	sessionVersion uint32 = 1
)

// SaveSession writes params (values and gradients) and opt's state to
// w.
func SaveSession(w io.Writer, params []nn.Param, opt *nn.Adam) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{sessionMagic, sessionVersion, uint32(len(params))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("checkpoint: session header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, opt.StepCount()); err != nil {
		return fmt.Errorf("checkpoint: session step: %w", err)
	}
	for _, p := range params {
		if p.Value == nil {
			return fmt.Errorf("checkpoint: parameter %q has nil value", p.Name)
		}
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		if err := writeTensor(bw, p.Value); err != nil {
			return fmt.Errorf("checkpoint: %q value: %w", p.Name, err)
		}
		hasGrad := p.Grad != nil
		if err := binary.Write(bw, binary.LittleEndian, boolByte(hasGrad)); err != nil {
			return fmt.Errorf("checkpoint: %q grad flag: %w", p.Name, err)
		}
		if hasGrad {
			if err := writeTensor(bw, p.Grad); err != nil {
				return fmt.Errorf("checkpoint: %q grad: %w", p.Name, err)
			}
		}
		slots := opt.StateSlots(p)
		if err := binary.Write(bw, binary.LittleEndian, uint8(len(slots))); err != nil {
			return fmt.Errorf("checkpoint: %q slot count: %w", p.Name, err)
		}
		for i, s := range slots {
			if err := writeTensor(bw, s); err != nil {
				return fmt.Errorf("checkpoint: %q slot %d: %w", p.Name, i, err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flush: %w", err)
	}
	return nil
}

// LoadSession restores a session snapshot into params and opt. Every
// stored parameter must match a target by name with an identical
// shape, carry a gradient exactly when its target has one and carry
// Adam's two moment buffers, and nothing may follow the last record.
func LoadSession(r io.Reader, params []nn.Param, opt *nn.Adam) error {
	br := bufio.NewReader(r)
	var m, ver, count uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return fmt.Errorf("checkpoint: session magic: %w", err)
	}
	if m != sessionMagic {
		return fmt.Errorf("%w: bad session magic %x", ErrFormat, m)
	}
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return fmt.Errorf("checkpoint: session version: %w", err)
	}
	if ver != sessionVersion {
		return fmt.Errorf("%w: session version %d, want %d", ErrFormat, ver, sessionVersion)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("checkpoint: session count: %w", err)
	}
	if count > maxParams {
		return fmt.Errorf("%w: %d parameters", ErrFormat, count)
	}
	if int(count) != len(params) {
		return fmt.Errorf("%w: snapshot has %d parameters, session has %d",
			ErrMismatch, count, len(params))
	}
	var step int64
	if err := binary.Read(br, binary.LittleEndian, &step); err != nil {
		return fmt.Errorf("checkpoint: session step: %w", err)
	}
	opt.SetStepCount(step)
	byName := make(map[string]nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	for i := uint32(0); i < count; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		p, ok := byName[name]
		if !ok {
			return fmt.Errorf("%w: unknown parameter %q", ErrMismatch, name)
		}
		delete(byName, name)
		if err := readTensorInto(br, p.Value, name, "value"); err != nil {
			return err
		}
		var hasGrad uint8
		if err := binary.Read(br, binary.LittleEndian, &hasGrad); err != nil {
			return fmt.Errorf("checkpoint: %q grad flag: %w", name, err)
		}
		if hasGrad > 1 {
			return fmt.Errorf("%w: %q grad flag %d", ErrFormat, name, hasGrad)
		}
		if (hasGrad == 1) != (p.Grad != nil) {
			return fmt.Errorf("%w: %q stored grad flag %d, target has a gradient: %t",
				ErrMismatch, name, hasGrad, p.Grad != nil)
		}
		if hasGrad == 1 {
			if err := readTensorInto(br, p.Grad, name, "grad"); err != nil {
				return err
			}
		}
		var nslots uint8
		if err := binary.Read(br, binary.LittleEndian, &nslots); err != nil {
			return fmt.Errorf("checkpoint: %q slot count: %w", name, err)
		}
		slots := opt.StateSlots(p)
		if int(nslots) != len(slots) {
			return fmt.Errorf("%w: %q has %d optimizer slots, Adam keeps %d",
				ErrFormat, name, nslots, len(slots))
		}
		for j, s := range slots {
			if err := readTensorInto(br, s, name, fmt.Sprintf("slot %d", j)); err != nil {
				return err
			}
		}
	}
	return expectEOF(br)
}

// EncodeSession is SaveSession into a fresh byte slice — the form the
// migration plane ships over HTTP.
func EncodeSession(params []nn.Param, opt *nn.Adam) ([]byte, error) {
	var buf bytes.Buffer
	if err := SaveSession(&buf, params, opt); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSession is LoadSession from a byte slice.
func DecodeSession(data []byte, params []nn.Param, opt *nn.Adam) error {
	return LoadSession(bytes.NewReader(data), params, opt)
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// writeTensor serializes shape and raw float32 bits.
func writeTensor(w io.Writer, t *tensor.Tensor) error {
	shape := t.Shape()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	for _, v := range t.Data() {
		if err := binary.Write(w, binary.LittleEndian, math.Float32bits(v)); err != nil {
			return err
		}
	}
	return nil
}

// readShape decodes a tensor header: the shape and its element count.
func readShape(r io.Reader, name, what string) ([]int, int, error) {
	var rank uint32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %q %s rank: %w", name, what, err)
	}
	if rank > 8 {
		return nil, 0, fmt.Errorf("%w: %q %s rank %d", ErrFormat, name, what, rank)
	}
	shape := make([]int, rank)
	elems := 1
	for i := range shape {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, 0, fmt.Errorf("checkpoint: %q %s dim: %w", name, what, err)
		}
		shape[i] = int(d)
		elems *= int(d)
	}
	if elems < 0 || elems > maxElems {
		return nil, 0, fmt.Errorf("%w: %q %s has %d elements", ErrFormat, name, what, elems)
	}
	return shape, elems, nil
}

// readTensorInto decodes a tensor and copies it into dst, which must
// have the identical shape.
func readTensorInto(r io.Reader, dst *tensor.Tensor, name, what string) error {
	shape, elems, err := readShape(r, name, what)
	if err != nil {
		return err
	}
	if dst == nil {
		return fmt.Errorf("%w: %q %s has no target tensor", ErrMismatch, name, what)
	}
	if !slices.Equal(dst.Shape(), shape) {
		return fmt.Errorf("%w: %q %s stored %v, target has %v",
			ErrMismatch, name, what, shape, dst.Shape())
	}
	data := make([]float32, elems)
	for i := range data {
		var bits uint32
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return fmt.Errorf("checkpoint: %q %s data: %w", name, what, err)
		}
		data[i] = math.Float32frombits(bits)
	}
	loaded, err := tensor.FromSlice(data, shape...)
	if err != nil {
		return fmt.Errorf("checkpoint: %q %s: %w", name, what, err)
	}
	if err := dst.CopyFrom(loaded); err != nil {
		return fmt.Errorf("checkpoint: %q %s: %w", name, what, err)
	}
	return nil
}

// skipTensor decodes a tensor's header, checks it against want and
// discards the values: a record the target model does not hold.
func skipTensor(r io.Reader, want []int, name string) error {
	shape, elems, err := readShape(r, name, "value")
	if err != nil {
		return err
	}
	if !slices.Equal(want, shape) {
		return fmt.Errorf("%w: %q value stored %v, want %v", ErrMismatch, name, shape, want)
	}
	if _, err := io.CopyN(io.Discard, r, 4*int64(elems)); err != nil {
		return fmt.Errorf("checkpoint: %q value data: %w", name, err)
	}
	return nil
}
