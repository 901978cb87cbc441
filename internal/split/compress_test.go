package split

import (
	"bytes"
	"math"
	"testing"

	"menos/internal/quant"
	"menos/internal/tensor"
)

// mustPack compresses t, failing the test on error.
func mustPack(t *testing.T, x *tensor.Tensor, c quant.Codec) *quant.Packed {
	t.Helper()
	p, err := quant.Pack(x, c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Payload resolves a message's tensor payload: the compressed form
// when present (unpacked to fp32), the plain tensor otherwise.
func Payload(plain *tensor.Tensor, packed *quant.Packed) (*tensor.Tensor, error) {
	if packed != nil {
		return packed.Unpack()
	}
	return plain, nil
}

// TestCompressedPayloadRoundTrip: every tensor-carrying message type
// survives a frame round trip with a packed payload, with and without
// a trace ID riding the same ext tail, for both codecs.
func TestCompressedPayloadRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(9)
	x := tensor.NewNormal(rng, 1, 4, 6)
	for _, codec := range []quant.Codec{quant.CodecFP16, quant.CodecInt8} {
		for _, traceID := range []uint64{0, 0xfeed} {
			p := mustPack(t, x, codec)
			msgs := []Message{
				&ForwardReq{Iter: 1, Batch: 4, Seq: 6, TraceID: traceID, Packed: p},
				&ForwardResp{Iter: 1, TraceID: traceID, Packed: p},
				&BackwardReq{Iter: 1, Apply: true, TraceID: traceID, Packed: p},
				&BackwardResp{Iter: 1, TraceID: traceID, Packed: p},
			}
			for _, m := range msgs {
				raw := encodeFrame(t, m)
				if raw[2] != VersionExt {
					t.Fatalf("%v codec=%v: version byte %d, want %d", m.MsgType(), codec, raw[2], VersionExt)
				}
				got, err := ReadMessage(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("%v codec=%v: %v", m.MsgType(), codec, err)
				}
				var gotPacked *quant.Packed
				var gotTrace uint64
				var gotPlain *tensor.Tensor
				switch g := got.(type) {
				case *ForwardReq:
					gotPacked, gotTrace, gotPlain = g.Packed, g.TraceID, g.Activations
				case *ForwardResp:
					gotPacked, gotTrace, gotPlain = g.Packed, g.TraceID, g.Activations
				case *BackwardReq:
					gotPacked, gotTrace, gotPlain = g.Packed, g.TraceID, g.Gradients
				case *BackwardResp:
					gotPacked, gotTrace, gotPlain = g.Packed, g.TraceID, g.Gradients
				}
				if gotTrace != traceID {
					t.Fatalf("%v: trace %x, want %x", m.MsgType(), gotTrace, traceID)
				}
				if gotPlain != nil {
					t.Fatalf("%v: plain tensor rode the wire alongside the packed payload", m.MsgType())
				}
				y, err := Payload(gotPlain, gotPacked)
				if err != nil {
					t.Fatalf("%v: unpack: %v", m.MsgType(), err)
				}
				if !y.SameShape(x) {
					t.Fatalf("%v: shape %v, want %v", m.MsgType(), y.Shape(), x.Shape())
				}
				for i, v := range x.Data() {
					// Loose bound: both codecs keep |err| under 2% of
					// the row max for normal(0,1) data.
					if math.Abs(float64(y.Data()[i]-v)) > 0.05 {
						t.Fatalf("%v codec=%v: element %d: %v -> %v", m.MsgType(), codec, i, v, y.Data()[i])
					}
				}
			}
		}
	}
}

// TestPayloadHelper: the plain path passes through untouched and a
// corrupt packed payload fails rather than decoding garbage.
func TestPayloadHelper(t *testing.T) {
	x := tensor.New(2, 2)
	got, err := Payload(x, nil)
	if err != nil || got != x {
		t.Fatalf("plain payload: %v, %v", got, err)
	}
	bad := &quant.Packed{Codec: quant.CodecInt8, Shape: []int{2, 2}, Data: make([]byte, 1)}
	if _, err := Payload(nil, bad); err == nil {
		t.Fatal("corrupt packed payload accepted")
	}
}

// TestPayloadCodecNegotiationGate: a peer quantizes what it sends, and
// accepts a packed payload, only on a session that negotiated
// compression; an un-negotiated session passes plain tensors through
// and treats a packed one as a protocol violation.
func TestPayloadCodecNegotiationGate(t *testing.T) {
	x := tensor.NewNormal(tensor.NewRNG(5), 1, 4, 6)
	p := mustPack(t, x, quant.CodecInt8)

	off := PayloadCodec{Codec: quant.CodecInt8}
	if plain, packed, err := off.Pack(nil, x); err != nil || plain != x || packed != nil {
		t.Fatalf("un-negotiated pack: %v, %v, %v", plain, packed, err)
	}
	if got, err := off.Unpack(nil, x, nil); err != nil || got != x {
		t.Fatalf("un-negotiated plain unpack: %v, %v", got, err)
	}
	if _, err := off.Unpack(nil, nil, p); err == nil {
		t.Fatal("packed payload accepted without negotiation")
	}

	on := PayloadCodec{Codec: quant.CodecInt8, Negotiated: true}
	plain, packed, err := on.Pack(nil, x)
	if err != nil || plain != nil || packed == nil || packed.Codec != quant.CodecInt8 {
		t.Fatalf("negotiated pack: %v, %v, %v", plain, packed, err)
	}
	if y, err := on.Unpack(nil, nil, packed); err != nil || !y.SameShape(x) {
		t.Fatalf("negotiated unpack: %v, %v", y, err)
	}
	// A peer configured fp32 sends plain even when the bit is set (the
	// other side may still compress what it sends).
	fp32 := PayloadCodec{Negotiated: true}
	if plain, packed, err := fp32.Pack(nil, x); err != nil || plain != x || packed != nil {
		t.Fatalf("fp32 pack on a negotiated session: %v, %v, %v", plain, packed, err)
	}
}

// TestCompressedFrameShrinksOnWire pins the reason this feature
// exists: the whole int8 frame (header, ints, scales, everything) is
// at most 40% of its fp32 form, and fp16 at most 60%.
func TestCompressedFrameShrinksOnWire(t *testing.T) {
	rng := tensor.NewRNG(10)
	x := tensor.NewNormal(rng, 1, 8, 128)
	plain := len(encodeFrame(t, &ForwardReq{Iter: 1, Activations: x}))
	int8Frame := len(encodeFrame(t, &ForwardReq{Iter: 1, Packed: mustPack(t, x, quant.CodecInt8)}))
	fp16Frame := len(encodeFrame(t, &ForwardReq{Iter: 1, Packed: mustPack(t, x, quant.CodecFP16)}))
	if float64(int8Frame) > 0.4*float64(plain) {
		t.Fatalf("int8 frame %dB not <=40%% of fp32 frame %dB", int8Frame, plain)
	}
	if float64(fp16Frame) > 0.6*float64(plain) {
		t.Fatalf("fp16 frame %dB not <=60%% of fp32 frame %dB", fp16Frame, plain)
	}
}

// TestCompressionNegotiationIntersection: the feature bit follows the
// same Hello/HelloAck algebra as tracing and migration — the server
// acks the intersection and unknown future bits drop out.
func TestCompressionNegotiationIntersection(t *testing.T) {
	offered := FeatureActivationCompression | FeatureTraceContext | 1<<63
	acked := offered & (FeatureActivationCompression | FeatureTraceContext)
	raw := encodeFrame(t, &HelloAck{OK: true, Features: acked})
	got, err := ReadMessage(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if f := got.(*HelloAck).Features; f != FeatureActivationCompression|FeatureTraceContext {
		t.Fatalf("acked features %x", f)
	}
	// A legacy server that never decodes the ext tail acks nothing;
	// the client must fall back to plain fp32 frames, which stay
	// byte-identical Version 1 (TestZeroExtStaysVersion1).
	if FeatureActivationCompression&0 != 0 {
		t.Fatal("unreachable")
	}
}

// TestCompressedFrameIsVersionExt documents the interop hazard that
// negotiation prevents: a compressed frame is stamped VersionExt and
// carries no plain tensor, so a peer that has not acked the feature
// must never receive one.
func TestCompressedFrameIsVersionExt(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := tensor.NewNormal(rng, 1, 2, 3)
	raw := encodeFrame(t, &ForwardReq{Iter: 1, Packed: mustPack(t, x, quant.CodecInt8)})
	if raw[2] != VersionExt {
		t.Fatalf("version byte %d, want %d", raw[2], VersionExt)
	}
}
