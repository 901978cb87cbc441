package split

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"menos/internal/adapter"
	"menos/internal/quant"
	"menos/internal/tensor"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MsgType() != m.MsgType() {
		t.Fatalf("type %v != %v", got.MsgType(), m.MsgType())
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	m := &Hello{
		ClientID:  "client-7",
		ModelName: "llama-tiny",
		Cut:       2,
		Adapter: adapter.Spec{
			Kind: adapter.KindLoRA, Rank: 8, Alpha: 16,
			Targets: []adapter.Target{adapter.TargetQ, adapter.TargetV},
		},
		Optimizer:   OptimizerConfig{Kind: "adam", LR: 3e-4},
		Batch:       4,
		Seq:         128,
		AdapterSeed: 0xdeadbeef,
	}
	got := roundTrip(t, m).(*Hello)
	if got.ClientID != m.ClientID || got.ModelName != m.ModelName || got.Cut != m.Cut {
		t.Fatalf("identity fields: %+v", got)
	}
	if got.Adapter.Kind != adapter.KindLoRA || got.Adapter.Rank != 8 ||
		got.Adapter.Alpha != 16 || len(got.Adapter.Targets) != 2 {
		t.Fatalf("adapter spec: %+v", got.Adapter)
	}
	if got.Optimizer.LR != 3e-4 || got.Optimizer.Kind != "adam" {
		t.Fatalf("optimizer: %+v", got.Optimizer)
	}
	if got.AdapterSeed != 0xdeadbeef || got.Batch != 4 || got.Seq != 128 {
		t.Fatalf("config: %+v", got)
	}
}

// TestHelloBytesArePinned pins the encoded Hello byte for byte: the
// SHA-256 over six frames — three adapter specs (LoRA on q,v; rank-4
// LoRA on q,k,v,o; an 8-slot prefix), each without feature bits and
// with every one. A change to the spec codec or to the Hello's field
// order fails here, before any peer sees it.
func TestHelloBytesArePinned(t *testing.T) {
	specs := []adapter.Spec{
		adapter.LoRASpec(adapter.DefaultLoRA()),
		adapter.LoRASpec(adapter.LoRAConfig{Rank: 4, Alpha: 8,
			Targets: []adapter.Target{adapter.TargetQ, adapter.TargetK, adapter.TargetV, adapter.TargetO}}),
		adapter.PrefixSpec(adapter.DefaultPrefix()),
	}
	h := sha256.New()
	for _, features := range []uint64{0, FeatureTraceContext | FeatureMigration | FeatureActivationCompression} {
		for i, spec := range specs {
			h.Write(encodeFrame(t, &Hello{
				ClientID:    fmt.Sprintf("client-%d", i),
				ModelName:   "opt-tiny",
				Cut:         1,
				Adapter:     spec,
				Optimizer:   OptimizerConfig{Kind: "adam", LR: 1e-3},
				Batch:       2,
				Seq:         16,
				AdapterSeed: 0x5eed + uint64(i),
				Features:    features,
			}))
		}
	}
	const want = "8fc4e1a2ef9dcfb191c144f1ecefa0e6ae78ab843e82a18de49a20d9a3ac631e"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("Hello frames sha256 = %s, want %s", got, want)
	}
}

// TestTrainingFrameBytesArePinned pins every frame but the Hello byte
// for byte, header included: the SHA-256 over the HelloAck, each of the
// four tensor messages plain, with a trace ID, and with an int8 and an
// fp16 packed tail, then Bye, ErrorMsg and MigrateMsg. A change to a
// field order, a type number or the payload layout fails here, before
// any peer sees it.
func TestTrainingFrameBytesArePinned(t *testing.T) {
	rng := tensor.NewRNG(47)
	x := tensor.NewNormal(rng, 2, 3, 4)
	pack := func(c quant.Codec) *quant.Packed {
		p, err := quant.Pack(x, c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	frames := []Message{
		&HelloAck{OK: true, ForwardBytes: 1 << 20, BackwardBytes: 3 << 20,
			Features: FeatureTraceContext | FeatureActivationCompression},
		&HelloAck{Reason: "overloaded", Retryable: true, RetryAfterMs: 250},
	}
	for _, tail := range []struct {
		traceID uint64
		packed  *quant.Packed
	}{
		{},
		{traceID: 0xfeedface},
		{traceID: 0xfeedface, packed: pack(quant.CodecInt8)},
		{packed: pack(quant.CodecFP16)},
	} {
		plain := x
		if tail.packed != nil {
			plain = nil
		}
		frames = append(frames,
			&ForwardReq{Iter: 5, Batch: 2, Seq: 3, Activations: plain, TraceID: tail.traceID, Packed: tail.packed},
			&ForwardResp{Iter: 5, Activations: plain, TraceID: tail.traceID, Packed: tail.packed},
			&BackwardReq{Iter: 5, Apply: true, Gradients: plain, TraceID: tail.traceID, Packed: tail.packed},
			&BackwardResp{Iter: 5, Gradients: plain, TraceID: tail.traceID, Packed: tail.packed})
	}
	frames = append(frames,
		&Bye{},
		&ErrorMsg{Reason: "body forward failed"},
		&ErrorMsg{Reason: "overloaded", Retryable: true, RetryAfterMs: 100},
		&MigrateMsg{Target: "127.0.0.1:7411", Token: 0xdeadbeefcafe})
	h := sha256.New()
	for _, m := range frames {
		h.Write(encodeFrame(t, m))
	}
	const want = "41552e87214e2fcb4701390498375c827ad1f8a0ac8a68e004e72fc004000b86"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("training frames sha256 = %s, want %s", got, want)
	}
}

// retiredKindHello is the Hello of a peer that still offers the retired
// adapter kind 3: its spec's trailing i64, reserved on the wire, is
// non-zero.
func retiredKindHello(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Hello{ClientID: "r", ModelName: "m", Cut: 1,
		Adapter: adapter.Spec{Kind: 3}, Optimizer: OptimizerConfig{Kind: "adam", LR: 1e-3},
		Batch: 1, Seq: 2}); err != nil {
		tb.Fatal(err)
	}
	frame := buf.Bytes()
	// After the reserved i64 come the optimizer kind (length + "adam")
	// and LR, Batch, Seq and AdapterSeed.
	off := len(frame) - (4 + len("adam") + 4*8) - 8
	binary.LittleEndian.PutUint64(frame[off:], 16)
	return frame
}

// TestRetiredKindHelloDecodes: a Hello naming a retired adapter kind is
// a well-formed frame — refusing it is the handshake's job, with a
// HelloAck, not the decoder's.
func TestRetiredKindHelloDecodes(t *testing.T) {
	m, err := ReadMessage(bytes.NewReader(retiredKindHello(t)))
	if err != nil {
		t.Fatalf("retired-kind Hello: %v", err)
	}
	if h := m.(*Hello); h.Adapter.Kind != 3 || h.Seq != 2 {
		t.Fatalf("decoded %+v", h)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	got := roundTrip(t, &HelloAck{OK: false, ForwardBytes: 123, BackwardBytes: 456, Reason: "no memory"}).(*HelloAck)
	if got.OK || got.ForwardBytes != 123 || got.BackwardBytes != 456 || got.Reason != "no memory" {
		t.Fatalf("ack: %+v", got)
	}
}

func TestTensorMessagesRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	act := tensor.NewNormal(rng, 1, 3, 5)
	got := roundTrip(t, &ForwardReq{Iter: 9, Batch: 1, Seq: 3, Activations: act}).(*ForwardReq)
	if got.Iter != 9 || got.Batch != 1 || got.Seq != 3 {
		t.Fatalf("fields: %+v", got)
	}
	if !got.Activations.SameShape(act) {
		t.Fatalf("shape %v", got.Activations.Shape())
	}
	for i := range act.Data() {
		if got.Activations.Data()[i] != act.Data()[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}

	grads := tensor.NewNormal(rng, 1, 2, 4)
	gotB := roundTrip(t, &BackwardReq{Iter: 2, Gradients: grads}).(*BackwardReq)
	if gotB.Gradients.Len() != grads.Len() {
		t.Fatal("gradients lost")
	}
	roundTrip(t, &ForwardResp{Iter: 1, Activations: act})
	roundTrip(t, &BackwardResp{Iter: 1, Gradients: grads})
}

func TestNilTensorRoundTrip(t *testing.T) {
	got := roundTrip(t, &ForwardReq{Iter: 1}).(*ForwardReq)
	if got.Activations != nil {
		t.Fatal("nil tensor not preserved")
	}
}

func TestByeAndErrorRoundTrip(t *testing.T) {
	roundTrip(t, &Bye{})
	got := roundTrip(t, &ErrorMsg{Reason: "boom"}).(*ErrorMsg)
	if got.Reason != "boom" {
		t.Fatalf("reason %q", got.Reason)
	}
}

func TestBadMagicRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Bye{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 0xFF
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Bye{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Bye{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[3] = 200
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

// retiredFrame is a well-formed frame of retired type typ with an
// 8-byte payload.
func retiredFrame(typ MsgType) []byte {
	return []byte{0x53, 0x4D, Version, byte(typ), 8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
}

// TestRetiredTypesAreRefused: a frame of a retired type (9 through 13)
// is refused with ErrRetired naming its number, not as malformed, and
// its payload is consumed so the next frame still reads.
func TestRetiredTypesAreRefused(t *testing.T) {
	for typ := firstRetired; typ <= lastRetired; typ++ {
		var buf bytes.Buffer
		buf.Write(retiredFrame(typ))
		if err := WriteMessage(&buf, &Bye{}); err != nil {
			t.Fatal(err)
		}
		_, err := ReadMessage(&buf)
		if !errors.Is(err, ErrRetired) || errors.Is(err, ErrBadFrame) {
			t.Fatalf("type %d: err = %v, want ErrRetired", typ, err)
		}
		if want := fmt.Sprintf("type %d", typ); !strings.Contains(err.Error(), want) {
			t.Fatalf("type %d: error %q does not name %q", typ, err, want)
		}
		if m, err := ReadMessage(&buf); err != nil || m.MsgType() != TypeBye {
			t.Fatalf("type %d: next frame %v, %v; want bye", typ, m, err)
		}
	}
	if TypeMigrate != 14 {
		t.Fatalf("TypeMigrate = %d, want 14", TypeMigrate)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	header := make([]byte, headerSize)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Bye{}); err != nil {
		t.Fatal(err)
	}
	copy(header, buf.Bytes()[:headerSize])
	header[4] = 0xFF
	header[5] = 0xFF
	header[6] = 0xFF
	header[7] = 0x7F
	if _, err := ReadMessage(bytes.NewReader(header)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncatedPayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	rng := tensor.NewRNG(2)
	if err := WriteMessage(&buf, &ForwardReq{Activations: tensor.NewNormal(rng, 1, 4, 4)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(raw[:len(raw)-8])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// Craft a Bye frame claiming a 4-byte payload.
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &ErrorMsg{Reason: ""}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[3] = byte(TypeBye) // Bye decodes nothing, leaving 4 bytes
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestCorruptPayloadNoPanic(t *testing.T) {
	// Fuzz-ish: any byte soup after a valid header must error, never
	// panic.
	live := []MsgType{TypeHello, TypeHelloAck, TypeForwardReq, TypeForwardResp,
		TypeBackwardReq, TypeBackwardResp, TypeBye, TypeError, TypeMigrate}
	f := func(body []byte, typeSeed uint8) bool {
		msgType := live[int(typeSeed)%len(live)]
		if len(body) > 1<<16 {
			body = body[:1<<16]
		}
		var buf bytes.Buffer
		header := make([]byte, headerSize)
		header[0] = 0x53
		header[1] = 0x4D
		header[2] = Version
		header[3] = byte(msgType)
		header[4] = byte(len(body))
		header[5] = byte(len(body) >> 8)
		buf.Write(header)
		buf.Write(body)
		_, err := ReadMessage(&buf)
		// Either decodes (harmless) or errors; must not panic.
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every message survives a pipe round-trip through sequential
// writes (stream framing works for back-to-back messages).
func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	rng := tensor.NewRNG(3)
	msgs := []Message{
		&Hello{ClientID: "a", ModelName: "m", Cut: 1, Adapter: adapter.LoRASpec(adapter.DefaultLoRA())},
		&ForwardReq{Iter: 0, Batch: 1, Seq: 2, Activations: tensor.NewNormal(rng, 1, 2, 3)},
		&ForwardResp{Iter: 0, Activations: tensor.NewNormal(rng, 1, 2, 3)},
		&BackwardReq{Iter: 0, Gradients: tensor.NewNormal(rng, 1, 2, 3)},
		&BackwardResp{Iter: 0, Gradients: tensor.NewNormal(rng, 1, 2, 3)},
		&Bye{},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.MsgType() != want.MsgType() {
			t.Fatalf("type %v, want %v", got.MsgType(), want.MsgType())
		}
	}
	if _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) && err == nil {
		t.Fatal("read past end succeeded")
	}
}

func TestBackwardReqApplyFlag(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := tensor.NewNormal(rng, 1, 2, 2)
	with := roundTrip(t, &BackwardReq{Iter: 3, Apply: true, Gradients: g}).(*BackwardReq)
	if !with.Apply {
		t.Fatal("Apply=true lost")
	}
	without := roundTrip(t, &BackwardReq{Iter: 3, Apply: false, Gradients: g}).(*BackwardReq)
	if without.Apply {
		t.Fatal("Apply=false lost")
	}
}

// writeRecorder keeps every Write it sees as a separate chunk.
type writeRecorder struct{ writes [][]byte }

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestOneWritePerFrame: a frame reaches the writer in exactly one Write
// — one syscall, and one segment on a TCP_NODELAY socket — and its
// bytes are the 8-byte header followed by the separately encoded
// payload, for a plain version-1 frame and for one with an extension
// tail.
func TestOneWritePerFrame(t *testing.T) {
	x := tensor.NewNormal(tensor.NewRNG(3), 1, 4, 6)
	for _, m := range []Message{
		&BackwardReq{Iter: 7, Apply: true, Gradients: x},
		&ForwardReq{Iter: 7, Batch: 2, Seq: 2, Activations: x, TraceID: 0xfeed},
	} {
		var payload encoder
		m.encode(&payload)
		version := Version
		if xm := m.(extMessage); xm.extPresent() {
			xm.encodeExt(&payload)
			version = VersionExt
		}
		want := binary.LittleEndian.AppendUint16(nil, Magic)
		want = append(want, version, byte(m.MsgType()))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(payload.buf)))
		want = append(want, payload.buf...)

		var rec writeRecorder
		if err := WriteMessage(&rec, m); err != nil {
			t.Fatal(err)
		}
		if len(rec.writes) != 1 {
			t.Fatalf("%v: frame took %d writes, want 1", m.MsgType(), len(rec.writes))
		}
		if !bytes.Equal(rec.writes[0], want) {
			t.Fatalf("%v: frame bytes differ from header‖payload", m.MsgType())
		}
	}
}

// TestTensorFrameAllocs: encoding a tensor frame reserves the payload
// once instead of append-doubling up to it. Three allocations — the
// encoder, the buffer the scalar fields start in, then one reservation
// for the tensor, plain or packed — and a fourth under the race
// detector, where growing a 32 KiB activation from the header's 8 bytes
// took 21 and copied the payload twice over.
func TestTensorFrameAllocs(t *testing.T) {
	x := tensor.NewNormal(tensor.NewRNG(5), 1, 64, 128)
	packed, err := quant.Pack(x, quant.CodecInt8)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]Message{
		"fp32": &ForwardReq{Iter: 1, Batch: 2, Seq: 32, Activations: x},
		"int8": &ForwardReq{Iter: 1, Batch: 2, Seq: 32, Packed: packed},
	} {
		got := testing.AllocsPerRun(50, func() {
			if err := WriteMessage(io.Discard, m); err != nil {
				t.Fatal(err)
			}
		})
		if got > 4 {
			t.Errorf("%s tensor frame: %v allocs per WriteMessage, want <= 4", name, got)
		}
	}
}
