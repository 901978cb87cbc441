// Package split defines the wire protocol between split fine-tuning
// clients and the server: length-prefixed binary frames carrying the
// §2.2 message flow (hello and its priced demands, forward
// activations, backward gradients) plus migration redirects and error
// reporting. The encoding is hand-rolled on encoding/binary — no
// reflection — so activation payloads (megabytes per iteration)
// serialize at memory-copy speed.
package split

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/tensor"
)

// Protocol constants.
const (
	// Magic marks the start of every frame.
	Magic uint16 = 0x4D53 // "MS"
	// Version is the base protocol version. Version-1 peers reject
	// anything else, so a frame is only ever written at a higher
	// version when it actually carries extension content.
	Version uint8 = 1
	// VersionExt adds an optional extension tail after the base
	// payload (trace context today). A frame is emitted at VersionExt
	// only when its extension fields are non-empty; otherwise the bytes
	// on the wire are identical to a Version-1 frame, which is what
	// lets a new peer interoperate with an old one.
	VersionExt uint8 = 2
	// MaxFrameBytes bounds a frame payload; larger frames indicate a
	// corrupt or hostile stream.
	MaxFrameBytes = 512 << 20

	headerSize = 8 // magic(2) + version(1) + type(1) + length(4)
)

// Feature bits negotiated in Hello/HelloAck (VersionExt frames). The
// client offers its feature set; the server acks the intersection it
// supports. A Version-1 peer never sees them and the negotiation
// silently resolves to "none".
const (
	// FeatureTraceContext: ForwardReq/BackwardReq carry the client
	// iteration's trace ID and the responses echo it, so both sides'
	// span buffers share IDs (docs/OBSERVABILITY.md, "Distributed
	// tracing").
	FeatureTraceContext uint64 = 1 << 0

	// FeatureMigration: the server may answer a ForwardReq with a
	// Migrate frame redirecting the client to another server. The
	// client's session state travels out of band over the control
	// plane; the client redials the target with the Migrate token in
	// Hello.ResumeToken and replays the forward the redirect displaced,
	// so no iteration is lost (docs/FLEET.md, "Live migration").
	FeatureMigration uint64 = 1 << 1

	// FeatureActivationCompression: the activation/gradient tensors in
	// ForwardReq/Resp and BackwardReq/Resp may ride the extension tail
	// codec-compressed (fp16 or int8 per-row, internal/quant) instead
	// of the base payload's fp32 tensor. Either side only sends a
	// compressed payload after the bit survives the Hello/HelloAck
	// intersection, so a legacy peer never sees one (docs/WIRE.md).
	FeatureActivationCompression uint64 = 1 << 2
)

// Errors reported by the codec.
var (
	ErrBadFrame  = errors.New("split: malformed frame")
	ErrTooLarge  = errors.New("split: frame exceeds size limit")
	ErrShortRead = errors.New("split: truncated payload")
	// ErrRetired refuses a frame of a retired type. Its payload has
	// been consumed, so the stream stays framed; the error names the type.
	ErrRetired = errors.New("split: retired frame")
)

// MsgType identifies a protocol message.
type MsgType uint8

// Message types.
const (
	TypeHello MsgType = iota + 1
	TypeHelloAck
	TypeForwardReq
	TypeForwardResp
	TypeBackwardReq
	TypeBackwardResp
	TypeBye
	TypeError
	TypeMigrate MsgType = 14
)

// Types 9 through 13 carried the retired incremental-decode frames.
// They stay reserved, and ReadMessage refuses them with ErrRetired.
const firstRetired, lastRetired MsgType = 9, 13

// String returns the message type name.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeForwardReq:
		return "forward-req"
	case TypeForwardResp:
		return "forward-resp"
	case TypeBackwardReq:
		return "backward-req"
	case TypeBackwardResp:
		return "backward-resp"
	case TypeBye:
		return "bye"
	case TypeError:
		return "error"
	case TypeMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Message is one protocol frame payload.
type Message interface {
	MsgType() MsgType
	encode(w *encoder)
	decode(r *decoder)
}

// extMessage is a message with an optional VersionExt tail. The tail
// is appended after the base payload and only when extPresent reports
// non-empty content; the frame header is then stamped VersionExt so a
// same-version peer knows to decode it. With empty extension content
// the frame is byte-identical to Version 1 — an old peer never sees a
// version it would reject.
type extMessage interface {
	Message
	extPresent() bool
	encodeExt(e *encoder)
	decodeExt(d *decoder)
}

// WriteMessage frames and writes m: a one-shot Framer write, with a
// frame buffer of its own.
func WriteMessage(w io.Writer, m Message) error {
	enc := encoder{buf: make([]byte, headerSize, scalarFieldsCap)}
	return writeFrame(w, &enc, m)
}

// writeFrame encodes m after the header bytes enc.buf starts with and
// fills the header in once the payload length is known, so the frame
// leaves in a single Write: one syscall, and one segment rather than
// two on a TCP_NODELAY socket.
func writeFrame(w io.Writer, enc *encoder, m Message) error {
	m.encode(enc)
	version := Version
	if xm, ok := m.(extMessage); ok && xm.extPresent() {
		xm.encodeExt(enc)
		version = VersionExt
	}
	frame := enc.buf
	length := len(frame) - headerSize
	if length > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, length)
	}
	binary.LittleEndian.PutUint16(frame[0:], Magic)
	frame[2] = version
	frame[3] = byte(m.MsgType())
	binary.LittleEndian.PutUint32(frame[4:], uint32(length))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("split: write frame: %w", err)
	}
	return nil
}

// ReadMessage reads and decodes one frame: a one-shot Framer read that
// consumes exactly the frame's bytes from r and decodes tensors onto
// the heap. Versions 1 through VersionExt are accepted; an extension
// tail on a VersionExt frame is decoded when present (a VersionExt
// frame without one is legal and equivalent to its Version-1 form).
func ReadMessage(r io.Reader) (Message, error) {
	in := frameReader{r: r, exact: true}
	var dec decoder
	return readFrame(&in, &dec)
}

// readFrame reads in's next frame and decodes it with dec.
func readFrame(in *frameReader, dec *decoder) (Message, error) {
	if err := in.fill(headerSize); err != nil {
		return nil, fmt.Errorf("split: read header: %w", err)
	}
	header := in.next(headerSize)
	if binary.LittleEndian.Uint16(header[0:]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	version := header[2]
	if version < Version || version > VersionExt {
		return nil, fmt.Errorf("%w: version %d, want %d..%d", ErrBadFrame, version, Version, VersionExt)
	}
	msgType := MsgType(header[3])
	length := binary.LittleEndian.Uint32(header[4:])
	if length > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, length)
	}
	m, err := newMessage(msgType)
	if err != nil {
		if errors.Is(err, ErrRetired) && in.fill(int(length)) == nil {
			in.next(int(length)) // consumed, so the next frame still reads
		}
		return nil, err
	}
	if err := in.fill(int(length)); err != nil {
		return nil, fmt.Errorf("split: read payload: %w", err)
	}
	payload := in.next(int(length))
	dec.buf, dec.off, dec.err = payload, 0, nil
	m.decode(dec)
	if version >= VersionExt && dec.err == nil && dec.off < len(payload) {
		if xm, ok := m.(extMessage); ok {
			xm.decodeExt(dec)
		}
	}
	if dec.err != nil {
		return nil, fmt.Errorf("split: decode %v: %w", msgType, dec.err)
	}
	if dec.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes in %v", ErrBadFrame, len(payload)-dec.off, msgType)
	}
	return m, nil
}

func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeHelloAck:
		return &HelloAck{}, nil
	case TypeForwardReq:
		return &ForwardReq{}, nil
	case TypeForwardResp:
		return &ForwardResp{}, nil
	case TypeBackwardReq:
		return &BackwardReq{}, nil
	case TypeBackwardResp:
		return &BackwardResp{}, nil
	case TypeBye:
		return &Bye{}, nil
	case TypeError:
		return &ErrorMsg{}, nil
	case TypeMigrate:
		return &MigrateMsg{}, nil
	}
	if t >= firstRetired && t <= lastRetired {
		return nil, fmt.Errorf("%w: type %d", ErrRetired, int(t))
	}
	return nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, int(t))
}

// encoder appends a frame's payload to buf (WriteMessage seeds buf
// with the header's bytes).
type encoder struct {
	buf []byte
}

// scalarFieldsCap is the capacity a frame's buffer starts with: room
// for the header and the scalar fields every message puts ahead of its
// tensor, so the only growth a tensor frame sees is the one reservation
// for the tensor itself.
const scalarFieldsCap = 64

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) ints(vs []int) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i64(int64(v))
	}
}
func (e *encoder) floats(vs []float32) {
	// One reservation for the whole tensor: append-doubling from the
	// header's 8 bytes would copy a 32 KiB payload a dozen times.
	e.buf = slices.Grow(e.buf, 4+4*len(vs))
	e.u32(uint32(len(vs)))
	n := len(e.buf)
	e.buf = e.buf[:n+4*len(vs)]
	putFloats(e.buf[n:], vs)
}
func (e *encoder) tensor(t *tensor.Tensor) {
	if t == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.ints(t.Shape())
	e.floats(t.Data())
}
func (e *encoder) bytes(b []byte) {
	e.buf = slices.Grow(e.buf, 4+len(b))
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// packed writes a codec-compressed tensor: codec byte, shape, per-row
// scales, packed data. Only ever emitted on sessions that negotiated
// FeatureActivationCompression.
func (e *encoder) packed(p *quant.Packed) {
	e.buf = slices.Grow(e.buf, 1+4+8*len(p.Shape)+4+4*len(p.Scales)+4+len(p.Data))
	e.u8(uint8(p.Codec))
	e.ints(p.Shape)
	e.floats(p.Scales)
	e.bytes(p.Data)
}

// decoder consumes a payload buffer, latching the first error.
type decoder struct {
	buf []byte
	off int
	err error

	// sc is the arena decoded tensors are taken from (nil: the heap).
	sc *tensor.Scratch
	// dims holds a decoded tensor's shape until the arena copies it.
	dims []int
	// reuse, when set, is the one Packed a framer's decoder fills frame
	// after frame; a one-shot decode makes a fresh one.
	reuse *quant.Packed
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrShortRead
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}
func (d *decoder) bool() bool { return d.u8() != 0 }
func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}
func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// ints decodes a length-prefixed int list into dst's storage.
func (d *decoder) ints(dst []int) []int {
	n := int(d.u32())
	if d.err != nil || n < 0 || n > len(d.buf) {
		d.fail()
		return nil
	}
	dst = slices.Grow(dst[:0], n)
	for range n {
		dst = append(dst, int(d.i64()))
	}
	return dst
}

// floats decodes a length-prefixed float list into dst's storage.
func (d *decoder) floats(dst []float32) []float32 {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+4*n > len(d.buf) {
		d.fail()
		return nil
	}
	dst = slices.Grow(dst[:0], n)[:n]
	getFloats(dst, d.buf[d.off:d.off+4*n])
	d.off += 4 * n
	return dst
}

// tensor decodes a tensor into one taken from the decoder's arena: the
// payload is copied out, so the tensor outlives the frame buffer.
func (d *decoder) tensor() *tensor.Tensor {
	if d.u8() == 0 {
		return nil
	}
	d.dims = d.ints(d.dims)
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+4*n > len(d.buf) {
		d.fail()
		return nil
	}
	if elems(d.dims) != n {
		d.err = fmt.Errorf("%w: data length %d does not match shape %v", tensor.ErrShape, n, d.dims)
		return nil
	}
	t := d.sc.GetUninit(d.dims...)
	getFloats(t.Data(), d.buf[d.off:d.off+4*n])
	d.off += 4 * n
	return t
}

// elems is a decoded shape's element count, or -1 for a negative
// dimension or a count past the int range.
func elems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return -1
		}
		if d == 0 {
			n = 0
		}
	}
	for _, d := range shape {
		if n == 0 {
			break
		}
		if n > math.MaxInt/d {
			return -1
		}
		n *= d
	}
	return n
}

// bytes returns the next length-prefixed byte string as a view of the
// payload buffer, valid as long as the buffer is.
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// packed reads a codec-compressed tensor. The struct is returned as
// decoded — length/shape consistency is validated by
// quant.Packed.Unpack, which treats it as untrusted input. Its Data is
// a view of the payload buffer.
func (d *decoder) packed() *quant.Packed {
	p := d.reuse
	if p == nil {
		p = &quant.Packed{}
	}
	p.Codec = quant.Codec(d.u8())
	p.Shape = d.ints(p.Shape)
	p.Scales = d.floats(p.Scales)
	p.Data = d.bytes()
	if d.err != nil {
		return nil
	}
	return p
}

// PayloadCodec is one peer's side of the compressed-payload transport
// for one session: the codec it sends with, whether the handshake
// negotiated FeatureActivationCompression, and the wire-plane metric
// handles (docs/WIRE.md; nil handles are valid and free). Client and
// server both pack what they send and unpack what they receive through
// it, so the negotiation gate exists once.
type PayloadCodec struct {
	Codec      quant.Codec
	Negotiated bool

	Compressed *obs.Counter   // on-wire bytes of packed payloads sent
	Raw        *obs.Counter   // fp32 bytes those payloads replaced
	Seconds    *obs.Histogram // time spent packing and unpacking
}

// Pack prepares an outgoing payload: quantized with the configured
// codec into dst (a fresh Packed when nil) when compression was
// negotiated, otherwise the tensor unchanged so the frame stays
// byte-identical to a legacy peer's.
func (pc PayloadCodec) Pack(dst *quant.Packed, x *tensor.Tensor) (*tensor.Tensor, *quant.Packed, error) {
	if !pc.Negotiated || pc.Codec == quant.CodecFP32 {
		return x, nil, nil
	}
	t0 := time.Now()
	if dst == nil {
		dst = &quant.Packed{}
	}
	if err := dst.PackFrom(x, pc.Codec); err != nil {
		return nil, nil, fmt.Errorf("pack payload: %w", err)
	}
	pc.Seconds.Observe(time.Since(t0).Seconds())
	pc.Compressed.Add(dst.WireBytes())
	pc.Raw.Add(int64(4 * len(x.Data())))
	return nil, dst, nil
}

// Unpack resolves an incoming payload that may be plain or packed,
// unpacking a packed one into a tensor taken from sc. A packed payload
// on a session that never negotiated compression is a protocol
// violation, not something to decode on faith.
func (pc PayloadCodec) Unpack(sc *tensor.Scratch, plain *tensor.Tensor, packed *quant.Packed) (*tensor.Tensor, error) {
	if packed == nil {
		return plain, nil
	}
	if !pc.Negotiated {
		return nil, errors.New("compressed payload without negotiation")
	}
	t0 := time.Now()
	x, err := packed.UnpackScratch(sc)
	if err != nil {
		return nil, fmt.Errorf("unpack payload: %w", err)
	}
	pc.Seconds.Observe(time.Since(t0).Seconds())
	return x, nil
}
