package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// stepOnce runs one optimizer step with deterministic synthetic grads.
func stepOnce(t testing.TB, params []nn.Param, opt *nn.Adam, seed uint64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	for _, p := range params {
		g := tensor.NewNormal(rng, 1, p.Grad.Shape()...)
		if err := p.Grad.CopyFrom(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := opt.Step(params); err != nil {
		t.Fatal(err)
	}
}

func sameTensor(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

// TestSessionRoundTripAdam: snapshot mid-training, restore into a
// fresh replica, and verify the two resume bit-identically — the
// property live migration depends on.
func TestSessionRoundTripAdam(t *testing.T) {
	src := testParams(t, 1)
	srcOpt := nn.NewAdam(0.01)
	for i := 0; i < 3; i++ {
		stepOnce(t, src, srcOpt, uint64(10+i))
	}
	// Leave accumulated (unapplied) gradients in place so the snapshot
	// must carry them.
	rng := tensor.NewRNG(99)
	for _, p := range src {
		if err := p.Grad.CopyFrom(tensor.NewNormal(rng, 1, p.Grad.Shape()...)); err != nil {
			t.Fatal(err)
		}
	}

	data, err := EncodeSession(src, srcOpt)
	if err != nil {
		t.Fatal(err)
	}
	dst := testParams(t, 2)
	dstOpt := nn.NewAdam(0.01)
	if err := DecodeSession(data, dst, dstOpt); err != nil {
		t.Fatal(err)
	}
	if got, want := dstOpt.StepCount(), srcOpt.StepCount(); got != want {
		t.Fatalf("restored step count %d, want %d", got, want)
	}
	for i := range src {
		if !sameTensor(src[i].Value, dst[i].Value) {
			t.Fatalf("param %q value differs after restore", src[i].Name)
		}
		if !sameTensor(src[i].Grad, dst[i].Grad) {
			t.Fatalf("param %q grad differs after restore", src[i].Name)
		}
	}
	// Both replicas apply the pending gradients, then take two more
	// identical steps; they must stay bit-identical throughout.
	for i := 0; i < 3; i++ {
		if err := srcOpt.Step(src); err != nil {
			t.Fatal(err)
		}
		if err := dstOpt.Step(dst); err != nil {
			t.Fatal(err)
		}
		for j := range src {
			if !sameTensor(src[j].Value, dst[j].Value) {
				t.Fatalf("step %d: param %q diverged after restore", i, src[j].Name)
			}
		}
		stepOnceBoth(t, src, dst, uint64(40+i))
	}
}

// stepOnceBoth loads the same synthetic gradients into both replicas.
func stepOnceBoth(t *testing.T, a, b []nn.Param, seed uint64) {
	t.Helper()
	for _, params := range [][]nn.Param{a, b} {
		rng := tensor.NewRNG(seed)
		for _, p := range params {
			if err := p.Grad.CopyFrom(tensor.NewNormal(rng, 1, p.Grad.Shape()...)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSessionShapeMismatch(t *testing.T) {
	data, err := EncodeSession(testParams(t, 1), nn.NewAdam(0.01))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	bad := []nn.Param{
		nn.NewParam("a.w", tensor.NewNormal(rng, 1, 3, 4)),
		nn.NewParam("a.b", tensor.NewNormal(rng, 1, 5)), // wrong shape
		nn.NewParam("b.gamma", tensor.NewNormal(rng, 1, 7)),
	}
	if err := DecodeSession(data, bad, nn.NewAdam(0.01)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

func TestSessionBadMagic(t *testing.T) {
	data, err := EncodeSession(testParams(t, 1), nn.NewAdam(0.01))
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := DecodeSession(data, testParams(t, 1), nn.NewAdam(0.01)); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestSessionTruncated(t *testing.T) {
	data, err := EncodeSession(testParams(t, 1), nn.NewAdam(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeSession(data[:len(data)-7], testParams(t, 1), nn.NewAdam(0.01)); err == nil {
		t.Fatal("truncated snapshot decoded without error")
	}
	var buf bytes.Buffer
	buf.Write(data[:6])
	if err := LoadSession(&buf, testParams(t, 1), nn.NewAdam(0.01)); err == nil {
		t.Fatal("header-only snapshot decoded without error")
	}
}

// TestSessionStatelessOptimizer: a snapshot whose records carry no
// optimizer slots (what a stateless optimizer's save wrote), or any
// count but Adam's two, is malformed.
func TestSessionStatelessOptimizer(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, slots := range []uint8{0, 1, 3} {
		params := testParams(t, 1)
		var buf bytes.Buffer
		for _, v := range []any{sessionMagic, sessionVersion, uint32(len(params)), int64(0)} {
			must(binary.Write(&buf, binary.LittleEndian, v))
		}
		for _, p := range params {
			must(writeString(&buf, p.Name))
			must(writeTensor(&buf, p.Value))
			buf.WriteByte(1)
			must(writeTensor(&buf, p.Grad))
			buf.WriteByte(slots)
			for j := uint8(0); j < slots; j++ {
				must(writeTensor(&buf, p.Grad))
			}
		}
		if err := DecodeSession(buf.Bytes(), testParams(t, 2), nn.NewAdam(0.01)); !errors.Is(err, ErrFormat) {
			t.Fatalf("%d slots: err = %v, want ErrFormat", slots, err)
		}
	}
}

// TestDecodersRefuseStrayBytes: a byte after the last record, or a
// gradient flag that disagrees with the target, is refused rather than
// decoded into state that would not save back to the same bytes.
func TestDecodersRefuseStrayBytes(t *testing.T) {
	params := testParams(t, 1)
	snap, err := EncodeSession(params, nn.NewAdam(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeSession(append(snap, 0), testParams(t, 2), nn.NewAdam(0.01)); !errors.Is(err, ErrFormat) {
		t.Fatalf("snapshot with a trailing byte: err = %v, want ErrFormat", err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, params); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if err := Load(&buf, testParams(t, 2)); !errors.Is(err, ErrFormat) {
		t.Fatalf("checkpoint with a trailing byte: err = %v, want ErrFormat", err)
	}
	noGrad := testParams(t, 2)
	noGrad[0].Grad = nil
	if err := DecodeSession(snap, noGrad, nn.NewAdam(0.01)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("stored grad, no target: err = %v, want ErrMismatch", err)
	}
	snap, err = EncodeSession(noGrad, nn.NewAdam(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeSession(snap, testParams(t, 2), nn.NewAdam(0.01)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("no stored grad, target has one: err = %v, want ErrMismatch", err)
	}
}
