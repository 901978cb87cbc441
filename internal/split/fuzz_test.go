package split

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"menos/internal/adapter"
	"menos/internal/quant"
	"menos/internal/tensor"
)

// fuzzPack builds a small packed tensor for the seed corpus.
func fuzzPack(f *testing.F, rng *tensor.RNG, c quant.Codec) *quant.Packed {
	p, err := quant.Pack(tensor.NewNormal(rng, 1, 2, 3), c)
	if err != nil {
		f.Fatal(err)
	}
	return p
}

// FuzzReadMessage feeds arbitrary byte streams to the frame decoder.
// The invariant: ReadMessage either returns a message or an error —
// never panics, never reads past the frame — and a decoded packed
// payload, which the decoder passes on unchecked, unpacks through
// Payload to either an error wrapping quant.ErrQuant or a tensor of
// exactly its declared shape. A frame of a retired type never decodes.
// The same bytes also go, as a stream of frames, through one Framer,
// whose read, payload and write buffers are reused from frame to frame:
// it decodes every frame the one-shot reader decodes, to the same bytes
// on re-encode, and fails where that reader fails. Run with
// `go test -fuzz FuzzReadMessage ./internal/split` to explore; the
// seed corpus (valid frames plus mutations) runs in normal `go test`.
func FuzzReadMessage(f *testing.F) {
	// Seed with every valid message type.
	rng := tensor.NewRNG(1)
	seeds := []Message{
		&Hello{ClientID: "a", ModelName: "m", Cut: 1,
			Adapter: adapter.LoRASpec(adapter.DefaultLoRA())},
		&HelloAck{OK: true, ForwardBytes: 1, BackwardBytes: 2},
		&ForwardReq{Iter: 1, Batch: 1, Seq: 2, Activations: tensor.NewNormal(rng, 1, 2, 3)},
		&ForwardResp{Iter: 1, Activations: tensor.NewNormal(rng, 1, 2, 3)},
		&BackwardReq{Iter: 1, Apply: true, Gradients: tensor.NewNormal(rng, 1, 2, 3)},
		&BackwardResp{Iter: 1, Gradients: tensor.NewNormal(rng, 1, 2, 3)},
		&Bye{},
		&ErrorMsg{Reason: "x"},
		&MigrateMsg{Target: "127.0.0.1:7411", Token: 0xfeed},
		// VersionExt frames: trace-context negotiation and propagation.
		&Hello{ClientID: "b", ModelName: "m", Cut: 1,
			Adapter:  adapter.LoRASpec(adapter.DefaultLoRA()),
			Features: FeatureTraceContext},
		&HelloAck{OK: true, Features: FeatureTraceContext},
		&ForwardReq{Iter: 2, Batch: 1, Seq: 2, TraceID: 0xdead,
			Activations: tensor.NewNormal(rng, 1, 2, 3)},
		&ForwardResp{Iter: 2, TraceID: 0xdead, Activations: tensor.NewNormal(rng, 1, 2, 3)},
		&BackwardReq{Iter: 2, TraceID: 0xbeef, Gradients: tensor.NewNormal(rng, 1, 2, 3)},
		&BackwardResp{Iter: 2, TraceID: 0xbeef, Gradients: tensor.NewNormal(rng, 1, 2, 3)},
		// Compressed-payload frames: the packed tensor rides the ext
		// tail (with and without a trace ID sharing it).
		&Hello{ClientID: "c", ModelName: "m", Cut: 1,
			Adapter:  adapter.LoRASpec(adapter.DefaultLoRA()),
			Features: FeatureTraceContext | FeatureActivationCompression},
		&HelloAck{OK: true, Features: FeatureActivationCompression},
		&ForwardReq{Iter: 3, Batch: 2, Seq: 3, Packed: fuzzPack(f, rng, quant.CodecInt8)},
		&ForwardResp{Iter: 3, TraceID: 0xdead, Packed: fuzzPack(f, rng, quant.CodecInt8)},
		&BackwardReq{Iter: 3, Apply: true, Packed: fuzzPack(f, rng, quant.CodecFP16)},
		&BackwardResp{Iter: 3, TraceID: 0xbeef, Packed: fuzzPack(f, rng, quant.CodecFP16)},
		&Hello{ClientID: "d", ModelName: "m", Cut: 1,
			Adapter: adapter.PrefixSpec(adapter.DefaultPrefix())},
		// Packed payloads the codec must refuse: an int8 tensor one scale
		// short, an fp16 one with an odd byte count, a zero and a negative
		// dimension.
		&ForwardReq{Iter: 4, Batch: 1, Seq: 2, Packed: &quant.Packed{Codec: quant.CodecInt8,
			Shape: []int{2, 3}, Scales: []float32{1}, Data: make([]byte, 6)}},
		&BackwardReq{Iter: 4, Packed: &quant.Packed{Codec: quant.CodecFP16,
			Shape: []int{2, 3}, Data: make([]byte, 11)}},
		&ForwardResp{Iter: 4, Packed: &quant.Packed{Codec: quant.CodecInt8,
			Shape: []int{0, 3}, Scales: []float32{}, Data: []byte{}}},
		&BackwardResp{Iter: 4, Packed: &quant.Packed{Codec: quant.CodecFP16,
			Shape: []int{-2, 3}, Data: make([]byte, 12)}},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(retiredKindHello(f))
	for typ := firstRetired; typ <= lastRetired; typ++ {
		f.Add(retiredFrame(typ))
	}
	// Hostile seeds.
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x4D, 1, 3, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(bytes.Repeat([]byte{0xAA}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		streamThroughFramer(t, data)
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if typ := MsgType(data[3]); typ >= firstRetired && typ <= lastRetired {
			t.Fatalf("a frame of retired type %d decoded to %v", typ, msg.MsgType())
		}
		// A decoded message must re-encode cleanly.
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		back, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.MsgType() != msg.MsgType() {
			t.Fatalf("type changed across round trip: %v -> %v", msg.MsgType(), back.MsgType())
		}

		var plain *tensor.Tensor
		var packed *quant.Packed
		switch m := msg.(type) {
		case *ForwardReq:
			plain, packed = m.Activations, m.Packed
		case *ForwardResp:
			plain, packed = m.Activations, m.Packed
		case *BackwardReq:
			plain, packed = m.Gradients, m.Packed
		case *BackwardResp:
			plain, packed = m.Gradients, m.Packed
		}
		if packed == nil {
			return
		}
		x, err := Payload(plain, packed)
		switch {
		case err != nil && !errors.Is(err, quant.ErrQuant):
			t.Fatalf("unpack of %v %v: error %v does not wrap quant.ErrQuant", packed.Codec, packed.Shape, err)
		case err == nil && !slices.Equal(x.Shape(), packed.Shape):
			t.Fatalf("unpacked shape %v, packed header says %v", x.Shape(), packed.Shape)
		}
	})
}

// streamThroughFramer reads data as a stream of frames twice, with the
// one-shot ReadMessage and with one Framer, until the first error: the
// two agree frame by frame on failing or on the message, compared as
// the bytes it re-encodes to (the framer's through its own reused write
// buffer). Decoded tensors go back to the framer's arena, so later
// frames decode into recycled ones.
func streamThroughFramer(t *testing.T, data []byte) {
	sc := tensor.NewScratch()
	var out bytes.Buffer
	fr := NewFramer(streamConn{bytes.NewReader(data), &out}, sc)
	oneShot := bytes.NewReader(data)
	for i := 0; ; i++ {
		want, werr := ReadMessage(oneShot)
		got, gerr := fr.ReadMessage()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("frame %d: one-shot error %v, framer error %v", i, werr, gerr)
		}
		if werr != nil {
			return
		}
		var wantBuf bytes.Buffer
		if err := WriteMessage(&wantBuf, want); err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		out.Reset()
		if err := fr.WriteMessage(got); err != nil {
			t.Fatalf("frame %d: framer re-encode: %v", i, err)
		}
		if !bytes.Equal(out.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("frame %d: framer decoded %v to other bytes than the one-shot reader", i, got.MsgType())
		}
		switch m := got.(type) {
		case *ForwardReq:
			sc.Put(m.Activations)
		case *ForwardResp:
			sc.Put(m.Activations)
		case *BackwardReq:
			sc.Put(m.Gradients)
		case *BackwardResp:
			sc.Put(m.Gradients)
		}
	}
}
