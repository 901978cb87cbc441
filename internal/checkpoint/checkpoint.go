// Package checkpoint serializes trainable parameters (adapter weights)
// to a compact binary format, so a client can stop a fine-tuning
// session and resume it — or export its adapter for deployment —
// without ever touching the shared base model.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"menos/internal/model"
	"menos/internal/nn"
)

// Format constants.
const (
	magic   uint32 = 0x4d43504b // "MCPK"
	version uint32 = 1

	// maxParams bounds a checkpoint's parameter count (corruption
	// guard).
	maxParams = 1 << 20
	// maxElems bounds one tensor's element count (corruption guard).
	maxElems = 1 << 28
)

// Errors reported by the package.
var (
	ErrFormat   = errors.New("checkpoint: malformed file")
	ErrMismatch = errors.New("checkpoint: parameters do not match")
)

// Save writes all params (names, shapes, values) to w.
func Save(w io.Writer, params []nn.Param) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, magic); err != nil {
		return fmt.Errorf("checkpoint: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, version); err != nil {
		return fmt.Errorf("checkpoint: write version: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return fmt.Errorf("checkpoint: write count: %w", err)
	}
	for _, p := range params {
		if p.Value == nil {
			return fmt.Errorf("checkpoint: parameter %q has nil value", p.Name)
		}
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		if err := writeTensor(bw, p.Value); err != nil {
			return fmt.Errorf("checkpoint: write %q: %w", p.Name, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flush: %w", err)
	}
	return nil
}

// Load restores values into params. Every stored parameter must match
// a target parameter by name with an identical shape; counts must
// agree exactly.
func Load(r io.Reader, params []nn.Param) error {
	return load(r, params, nil)
}

// load is Load where the stream also holds the records named in
// absent, which have no target: each is checked for its name and shape
// like any other record, and its values are skipped.
func load(r io.Reader, params []nn.Param, absent []model.ParamShape) error {
	br := bufio.NewReader(r)
	var m, ver, count uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return fmt.Errorf("checkpoint: read magic: %w", err)
	}
	if m != magic {
		return fmt.Errorf("%w: bad magic %x", ErrFormat, m)
	}
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return fmt.Errorf("checkpoint: read version: %w", err)
	}
	if ver != version {
		return fmt.Errorf("%w: version %d, want %d", ErrFormat, ver, version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("checkpoint: read count: %w", err)
	}
	if count > maxParams {
		return fmt.Errorf("%w: %d parameters", ErrFormat, count)
	}
	if want := len(params) + len(absent); int(count) != want {
		return fmt.Errorf("%w: checkpoint has %d parameters, model has %d",
			ErrMismatch, count, want)
	}
	byName := make(map[string]nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	skipped := make(map[string][]int, len(absent))
	for _, a := range absent {
		skipped[a.Name] = a.Shape
	}
	for i := uint32(0); i < count; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		if shape, ok := skipped[name]; ok {
			if err := skipTensor(br, shape, name); err != nil {
				return err
			}
			delete(skipped, name)
			continue
		}
		// An unknown name has no target: readTensorInto checks the
		// stored header first, then refuses it as a mismatch.
		if err := readTensorInto(br, byName[name].Value, name, "value"); err != nil {
			return err
		}
		delete(byName, name)
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return fmt.Errorf("checkpoint: write string length: %w", err)
	}
	if _, err := io.WriteString(w, s); err != nil {
		return fmt.Errorf("checkpoint: write string: %w", err)
	}
	return nil
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("checkpoint: read string length: %w", err)
	}
	if n > 4096 {
		return "", fmt.Errorf("%w: string length %d", ErrFormat, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("checkpoint: read string: %w", err)
	}
	return string(buf), nil
}
