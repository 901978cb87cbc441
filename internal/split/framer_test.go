package split

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"menos/internal/quant"
	"menos/internal/tensor"
)

// streamConn is a framer's connection over a fixed input: reads come
// from r, writes go to w.
type streamConn struct {
	io.Reader
	io.Writer
}

// framesOf encodes ms back to back with the one-shot writer.
func framesOf(t *testing.T, ms ...Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range ms {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFramerDecodesIntoOwnedTensors: a tensor a framer decodes is the
// caller's, not a view of the frame buffer the next frame lands in.
// Three same-shaped frames go through one framer; the first frame's
// tensor, plain or unpacked from int8, keeps its bits after the other
// two are read (and unpacked) into the same arena.
func TestFramerDecodesIntoOwnedTensors(t *testing.T) {
	rng := tensor.NewRNG(21)
	xs := []*tensor.Tensor{
		tensor.NewNormal(rng, 1, 16, 64),
		tensor.NewNormal(rng, 1, 16, 64),
		tensor.NewNormal(rng, 1, 16, 64),
	}
	codec := PayloadCodec{Codec: quant.CodecInt8, Negotiated: true}
	for _, packed := range []bool{false, true} {
		var ms []Message
		for i, x := range xs {
			m := &ForwardReq{Iter: i, Batch: 1, Seq: 16, Activations: x}
			if packed {
				_, p, err := codec.Pack(nil, x)
				if err != nil {
					t.Fatal(err)
				}
				m.Activations, m.Packed = nil, p
			}
			ms = append(ms, m)
		}
		sc := tensor.NewScratch()
		fr := NewFramer(streamConn{bytes.NewReader(framesOf(t, ms...)), io.Discard}, sc)
		var first *tensor.Tensor
		var bits []uint32
		for i := range ms {
			msg, err := fr.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			req := msg.(*ForwardReq)
			got, err := codec.Unpack(sc, req.Activations, req.Packed)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = got
				for _, v := range got.Data() {
					bits = append(bits, math.Float32bits(v))
				}
			}
		}
		if !packed {
			for i, v := range xs[0].Data() {
				if math.Float32bits(v) != bits[i] {
					t.Fatalf("plain: decoded element %d is %v, sent %v", i, math.Float32frombits(bits[i]), v)
				}
			}
		}
		for i, v := range first.Data() {
			if math.Float32bits(v) != bits[i] {
				t.Fatalf("packed=%v: element %d of the first tensor changed from %v to %v after two more frames",
					packed, i, math.Float32frombits(bits[i]), v)
			}
		}
	}
}

// TestFramerReadsAFrameInOneRead: a frame that has arrived whole costs
// the framer one Read — header and payload together — where the
// one-shot ReadMessage makes two. net.Pipe hands each Write to the
// reader in one piece, as a socket does with a frame that has landed.
func TestFramerReadsAFrameInOneRead(t *testing.T) {
	rng := tensor.NewRNG(22)
	ms := []Message{
		&ForwardResp{Iter: 1, Activations: tensor.NewNormal(rng, 1, 16, 64)},
		&BackwardResp{Iter: 1, Gradients: tensor.NewNormal(rng, 1, 16, 64)},
		&ForwardResp{Iter: 2, Activations: tensor.NewNormal(rng, 1, 16, 64)},
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		w := NewFramer(a, nil)
		for _, m := range ms {
			if err := w.WriteMessage(m); err != nil {
				return
			}
		}
	}()
	counted := &readCounter{Reader: b}
	fr := NewFramer(streamConn{counted, io.Discard}, tensor.NewScratch())
	for _, want := range ms {
		got, err := fr.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if got.MsgType() != want.MsgType() {
			t.Fatalf("type %v, want %v", got.MsgType(), want.MsgType())
		}
	}
	if counted.reads != len(ms) {
		t.Fatalf("%d reads for %d frames, want one each", counted.reads, len(ms))
	}
}

type readCounter struct {
	io.Reader
	reads int
}

func (r *readCounter) Read(p []byte) (int, error) {
	r.reads++
	return r.Reader.Read(p)
}

// TestPortableFloatPathIsTheSameBytes: the per-float loop a big-endian
// host takes writes and reads the same frames as the bulk copy.
func TestPortableFloatPathIsTheSameBytes(t *testing.T) {
	x := tensor.NewNormal(tensor.NewRNG(23), 1, 5, 7)
	p, err := quant.Pack(x, quant.CodecInt8)
	if err != nil {
		t.Fatal(err)
	}
	ms := []Message{
		&ForwardReq{Iter: 3, Batch: 1, Seq: 5, Activations: x},
		&BackwardResp{Iter: 3, TraceID: 9, Packed: p},
	}
	bulk := framesOf(t, ms...)
	defer func(v bool) { hostLittleEndian = v }(hostLittleEndian)
	hostLittleEndian = false
	if loop := framesOf(t, ms...); !bytes.Equal(loop, bulk) {
		t.Fatal("the per-float encoder wrote other bytes than the bulk copy")
	}
	fr := NewFramer(streamConn{bytes.NewReader(bulk), io.Discard}, nil)
	msg, err := fr.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*ForwardReq).Activations.Data(); !slices.Equal(got, x.Data()) {
		t.Fatal("the per-float decoder read other values than were sent")
	}
	msg, err = fr.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*BackwardResp).Packed; !slices.Equal(got.Scales, p.Scales) || !bytes.Equal(got.Data, p.Data) {
		t.Fatal("the per-float decoder read other scales than were sent")
	}
}

// TestFramerWritesTheOneShotBytes: a framer's reused write buffer
// carries, frame after frame, exactly what WriteMessage writes.
func TestFramerWritesTheOneShotBytes(t *testing.T) {
	rng := tensor.NewRNG(24)
	ms := []Message{
		&ForwardReq{Iter: 1, Batch: 2, Seq: 3, Activations: tensor.NewNormal(rng, 1, 6, 8)},
		&Bye{},
		&BackwardReq{Iter: 1, Apply: true, TraceID: 5, Gradients: tensor.NewNormal(rng, 1, 2, 8)},
		&ErrorMsg{Reason: "shed", Retryable: true, RetryAfterMs: 3},
	}
	var buf bytes.Buffer
	fr := NewFramer(streamConn{bytes.NewReader(nil), &buf}, nil)
	for _, m := range ms {
		if err := fr.WriteMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), framesOf(t, ms...)) {
		t.Fatal("framer bytes differ from WriteMessage's")
	}
}

// claimHeader is a frame header of type typ claiming a payload of n
// bytes.
func claimHeader(typ MsgType, n uint32) []byte {
	h := make([]byte, headerSize)
	binary.LittleEndian.PutUint16(h[0:], Magic)
	h[2], h[3] = Version, byte(typ)
	binary.LittleEndian.PutUint32(h[4:], n)
	return h
}

// TestAHeaderAloneAllocatesLittle: eight bytes claiming a 64 MiB
// payload, then the end of the stream, make neither reader allocate
// anything near the claim — a buffer grows as a frame's bytes arrive,
// not as its header announces them.
func TestAHeaderAloneAllocatesLittle(t *testing.T) {
	const claim, limit = 64 << 20, 1 << 20
	for _, r := range []struct {
		name string
		read func(io.Reader) error
	}{
		{"ReadMessage", func(in io.Reader) error { _, err := ReadMessage(in); return err }},
		{"Framer", func(in io.Reader) error {
			_, err := NewFramer(streamConn{in, io.Discard}, nil).ReadMessage()
			return err
		}},
	} {
		in := bytes.NewReader(claimHeader(TypeForwardReq, claim))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := r.read(in)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Fatalf("%s: a header without its payload decoded", r.name)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= limit {
			t.Errorf("%s: %d B allocated for a %d B claim with no payload, want < %d", r.name, got, claim, limit)
		}
	}
}

// TestUnknownTypeIsRefusedBeforeItsPayload: a frame of no known type is
// refused from its header, without reading (or buffering) the payload
// it claims.
func TestUnknownTypeIsRefusedBeforeItsPayload(t *testing.T) {
	errPayloadRead := errors.New("payload read")
	in := io.MultiReader(bytes.NewReader(claimHeader(200, 64<<20)), iotest.ErrReader(errPayloadRead))
	if _, err := ReadMessage(in); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame before any payload read", err)
	}
}
