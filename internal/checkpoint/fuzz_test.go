package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// checkDecodeError fails t unless err is one the decoders promise: a
// malformed stream (ErrFormat), a stream for other parameters
// (ErrMismatch) or one that ends early.
func checkDecodeError(t *testing.T, err error) {
	t.Helper()
	for _, want := range []error{ErrFormat, ErrMismatch, io.EOF, io.ErrUnexpectedEOF} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("decode error %v wraps none of ErrFormat, ErrMismatch or an EOF", err)
}

// addMangled seeds f with valid, every truncation at a stride, valid
// with a byte appended, and valid with each header byte inverted.
func addMangled(f *testing.F, valid []byte, header int) {
	f.Add(valid)
	for n := 0; n < len(valid); n += 7 {
		f.Add(valid[:n])
	}
	f.Add(append(bytes.Clone(valid), 0))
	for i := 0; i < header; i++ {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}
}

// FuzzDecodeSession feeds arbitrary bytes to the session-snapshot
// decoder, seeded with a real snapshot taken mid-accumulation after two
// Adam steps. The invariants: no input panics, every refusal is one the
// package names, and a snapshot that decodes re-encodes to the very
// same bytes. Run with `go test -fuzz FuzzDecodeSession
// ./internal/checkpoint` to explore; the seeds run in normal `go test`.
func FuzzDecodeSession(f *testing.F) {
	params, opt := testParams(f, 1), nn.NewAdam(0.01)
	for i := 0; i < 2; i++ {
		stepOnce(f, params, opt, uint64(10+i))
	}
	rng := tensor.NewRNG(99)
	for _, p := range params {
		if err := p.Grad.CopyFrom(tensor.NewNormal(rng, 1, p.Grad.Shape()...)); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := EncodeSession(params, opt)
	if err != nil {
		f.Fatal(err)
	}
	// Magic, version, count, step, then the first record's name
	// length, name and value rank.
	addMangled(f, snap, 31)

	f.Fuzz(func(t *testing.T, data []byte) {
		params, opt := testParams(t, 2), nn.NewAdam(0.01)
		if err := DecodeSession(data, params, opt); err != nil {
			checkDecodeError(t, err)
			return
		}
		again, err := EncodeSession(params, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded snapshot re-encodes to %d other bytes than its %d", len(again), len(data))
		}
	})
}

// FuzzLoad is FuzzDecodeSession for the parameter checkpoint Save
// writes, seeded with a real one.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := Save(&buf, testParams(f, 1)); err != nil {
		f.Fatal(err)
	}
	// Magic, version, count, then the first record's name length,
	// name and value rank.
	addMangled(f, buf.Bytes(), 23)

	f.Fuzz(func(t *testing.T, data []byte) {
		params := testParams(t, 2)
		if err := Load(bytes.NewReader(data), params); err != nil {
			checkDecodeError(t, err)
			return
		}
		var again bytes.Buffer
		if err := Save(&again, params); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("loaded checkpoint saves to %d other bytes than its %d", again.Len(), len(data))
		}
	})
}
