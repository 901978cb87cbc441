package split

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"unsafe"

	"menos/internal/quant"
	"menos/internal/tensor"
)

// Framer is one connection's frame codec: the same frames, byte for
// byte, as WriteMessage and ReadMessage, without their per-frame
// allocations. It buffers what it reads, so a frame that has arrived
// whole costs one read syscall; it keeps one frame buffer in each
// direction, grown to the largest frame seen and reused; and it decodes
// every tensor into one taken from its arena, so a decoded tensor
// belongs to the caller — who returns it to that arena when done — and
// never aliases a buffer the next frame overwrites. A packed payload
// (quant.Packed) is the one exception: its Data and Scales live in the
// framer and are valid until the next ReadMessage, so a reader unpacks
// it (PayloadCodec.Unpack) before reading on. A Framer is not safe for
// concurrent use.
type Framer struct {
	w   io.Writer
	in  frameReader
	dec decoder
	enc encoder
}

// NewFramer returns conn's framer, decoding tensors into sc (nil: the
// heap).
func NewFramer(conn io.ReadWriter, sc *tensor.Scratch) *Framer {
	return &Framer{
		w:   conn,
		in:  frameReader{r: conn},
		dec: decoder{sc: sc, reuse: &quant.Packed{}},
		enc: encoder{buf: make([]byte, headerSize, scalarFieldsCap)},
	}
}

// SetScratch makes later reads decode tensors into sc (nil: the heap),
// for a connection whose owner has an arena only after its handshake.
func (f *Framer) SetScratch(sc *tensor.Scratch) { f.dec.sc = sc }

// WriteMessage frames and writes m in one Write.
func (f *Framer) WriteMessage(m Message) error {
	f.enc.buf = f.enc.buf[:headerSize]
	return writeFrame(f.w, &f.enc, m)
}

// ReadMessage reads and decodes the connection's next frame.
func (f *Framer) ReadMessage() (Message, error) {
	return readFrame(&f.in, &f.dec)
}

// frameReaderSize is a framer's first read buffer; it grows to the
// largest frame the connection carries.
const frameReaderSize = 8 << 10

// frameGrowStep is the most a frame's header alone makes a reader
// allocate: past it, a buffer grows only once the frame's bytes have
// filled it.
const frameGrowStep = 64 << 10

// frameReader hands out a stream's frames from one buffer, buf[off:end]
// being what has been read and not yet handed out. A framer's reader
// asks the stream for as much as the buffer holds; the one-shot
// reader (exact) asks for exactly the bytes the frame still lacks, so it
// never consumes past the frame it decodes.
type frameReader struct {
	r        io.Reader
	exact    bool
	buf      []byte
	off, end int
}

// fill makes at least n bytes buffered. The error is io.EOF when the
// stream ends with nothing buffered and io.ErrUnexpectedEOF when it
// ends inside the n bytes.
func (fr *frameReader) fill(n int) error {
	if fr.end-fr.off >= n {
		return nil
	}
	if fr.off == fr.end {
		// Nothing buffered: the next frame starts at the front, where
		// the whole buffer is room for it.
		fr.off, fr.end = 0, 0
	}
	for fr.end-fr.off < n {
		if fr.off+n > len(fr.buf) {
			fr.makeRoom(n)
		}
		limit := len(fr.buf)
		if fr.exact {
			limit = min(limit, fr.off+n)
		}
		m, err := fr.r.Read(fr.buf[fr.end:limit])
		fr.end += m
		if err != nil {
			if fr.end-fr.off >= n {
				return nil
			}
			if errors.Is(err, io.EOF) && fr.end > fr.off {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// makeRoom makes room toward n buffered bytes that do not fit behind
// off: it slides what is buffered to the front of the buffer, first
// moving it into a larger one when the buffer is shorter than n and
// either full or shorter than frameGrowStep. A larger buffer doubles
// (at least to frameGrowStep, a framer's at least to frameReaderSize)
// up to n, so what a frame allocates follows the bytes that arrived,
// not the length its header claims.
func (fr *frameReader) makeRoom(n int) {
	buf := fr.buf
	if len(buf) < n && (fr.end == len(buf) || len(buf) < frameGrowStep) {
		size := min(n, max(2*len(buf), frameGrowStep))
		if !fr.exact {
			size = max(size, frameReaderSize)
		}
		buf = make([]byte, size)
	} else if fr.off == 0 {
		return
	}
	fr.end = copy(buf, fr.buf[fr.off:fr.end])
	fr.off, fr.buf = 0, buf
}

// next hands out the next n buffered bytes; they stay valid until the
// next fill.
func (fr *frameReader) next(n int) []byte {
	b := fr.buf[fr.off : fr.off+n : fr.off+n]
	fr.off += n
	return b
}

// hostLittleEndian reports that a float32 sits in memory as the wire
// carries it, so a tensor's data moves to and from a frame in one copy;
// elsewhere each value goes through encoding/binary.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// putFloats writes vs little-endian into dst, which holds 4·len(vs) bytes.
func putFloats(dst []byte, vs []float32) {
	if hostLittleEndian {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 4*len(vs)))
		return
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getFloats reads len(dst) little-endian floats from src.
func getFloats(dst []float32, src []byte) {
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
