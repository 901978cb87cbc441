package quant

import (
	"errors"
	"math"
	"testing"

	"menos/internal/tensor"
)

func TestParseCodec(t *testing.T) {
	cases := map[string]Codec{
		"off": CodecFP32, "": CodecFP32, "none": CodecFP32, "fp32": CodecFP32,
		"fp16": CodecFP16, "int8": CodecInt8,
	}
	for s, want := range cases {
		got, err := ParseCodec(s)
		if err != nil || got != want {
			t.Fatalf("ParseCodec(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCodec("gzip"); !errors.Is(err, ErrQuant) {
		t.Fatalf("unknown codec error = %v", err)
	}
	if CodecFP16.String() != "fp16" || CodecInt8.String() != "int8" || CodecFP32.String() != "off" {
		t.Fatal("codec strings")
	}
	if CodecFP32.BytesPerValue() != 4 || CodecFP16.BytesPerValue() != 2 || CodecInt8.BytesPerValue() != 1 {
		t.Fatal("bytes per value")
	}
	if CodecInt8.WireRatio() != 0.25 || CodecFP16.WireRatio() != 0.5 {
		t.Fatal("wire ratios")
	}
}

// Every finite binary16 value survives the f16 -> f32 -> f16 round
// trip bit-exactly. (Infinities and NaNs are excluded: Pack rejects
// non-finite inputs before conversion, and the encoder clamps rather
// than emits them.)
func TestFloat16RoundTripExhaustive(t *testing.T) {
	for h := 0; h <= 0xFFFF; h++ {
		if h>>10&0x1f == 0x1f {
			continue // Inf/NaN encodings
		}
		f := Float16ToFloat32(uint16(h))
		back := Float16FromFloat32(f)
		if back != uint16(h) {
			t.Fatalf("half %#04x -> %v -> %#04x", h, f, back)
		}
	}
}

func TestFloat16KnownValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000}, {1, 0x3C00}, {-2, 0xC000}, {0.5, 0x3800},
		{65504, 0x7BFF}, {-65504, 0xFBFF},
		{5.9604645e-8, 0x0001}, // smallest positive subnormal
	}
	for _, c := range cases {
		if got := Float16FromFloat32(c.f); got != c.h {
			t.Fatalf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := Float16ToFloat32(c.h); got != c.f {
			t.Fatalf("ToFloat32(%#04x) = %v, want %v", c.h, got, c.f)
		}
	}
	// Overflow clamps to the max finite half instead of Inf.
	if got := Float16FromFloat32(1e30); got != 0x7BFF {
		t.Fatalf("overflow = %#04x, want 0x7BFF", got)
	}
	if got := Float16FromFloat32(-1e30); got != 0xFBFF {
		t.Fatalf("negative overflow = %#04x, want 0xFBFF", got)
	}
}

func TestPackFP32IsNoCodec(t *testing.T) {
	p, err := Pack(tensor.New(2, 2), CodecFP32)
	if err != nil || p != nil {
		t.Fatalf("fp32 pack = %v, %v; want nil, nil", p, err)
	}
}

func TestPackUnpackFP16(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := tensor.NewNormal(rng, 2.0, 3, 5, 16)
	p, err := Pack(x, CodecFP16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Codec != CodecFP16 || len(p.Scales) != 0 || len(p.Data) != 2*x.Len() {
		t.Fatalf("packed meta: codec=%v scales=%d data=%d", p.Codec, len(p.Scales), len(p.Data))
	}
	y, err := p.Unpack()
	if err != nil {
		t.Fatal(err)
	}
	if !y.SameShape(x) {
		t.Fatalf("shape %v != %v", y.Shape(), x.Shape())
	}
	for i, v := range x.Data() {
		got := y.Data()[i]
		// fp16 has 11 significand bits: relative error <= 2^-11.
		if math.Abs(float64(got-v)) > math.Abs(float64(v))/2048+1e-7 {
			t.Fatalf("fp16 round-trip at %d: %v -> %v", i, v, got)
		}
	}
}

func TestPackUnpackInt8PerRowBound(t *testing.T) {
	rng := tensor.NewRNG(12)
	x := tensor.NewNormal(rng, 1.0, 7, 33)
	// Make the row magnitudes wildly different so a per-tensor scale
	// would fail this bound; per-row scales must track each row.
	for r := 0; r < 7; r++ {
		for c := 0; c < 33; c++ {
			x.Set(x.At(r, c)*float32(math.Pow(10, float64(r-3))), r, c)
		}
	}
	p, err := Pack(x, CodecInt8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scales) != 7 || len(p.Data) != x.Len() {
		t.Fatalf("packed meta: scales=%d data=%d", len(p.Scales), len(p.Data))
	}
	y, err := p.Unpack()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 7; r++ {
		step := float64(p.Scales[r])
		for c := 0; c < 33; c++ {
			if diff := math.Abs(float64(y.At(r, c) - x.At(r, c))); diff > step*0.5001+1e-12 {
				t.Fatalf("row %d col %d: err %v > step/2 %v", r, c, diff, step/2)
			}
		}
	}
}

// Adversarial shapes from the issue: all-zero rows must round-trip to
// exact zeros (no 0/0 NaN), and single-element rows must survive.
func TestPackAdversarialShapes(t *testing.T) {
	for _, codec := range []Codec{CodecFP16, CodecInt8} {
		zero := tensor.New(4, 8) // all zero
		p, err := Pack(zero, codec)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		y, err := p.Unpack()
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		for i, v := range y.Data() {
			if v != 0 || math.IsNaN(float64(v)) {
				t.Fatalf("%v: zero row element %d became %v", codec, i, v)
			}
		}

		single := tensor.New(5, 1) // one element per row
		single.Set(3.25, 2, 0)
		single.Set(-0.125, 4, 0)
		p, err = Pack(single, codec)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		y, err = p.Unpack()
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		for r := 0; r < 5; r++ {
			want := float64(single.At(r, 0))
			got := float64(y.At(r, 0))
			if math.Abs(got-want) > math.Abs(want)/127+1e-9 {
				t.Fatalf("%v: single-element row %d: %v -> %v", codec, r, want, got)
			}
		}
	}
}

func TestPackRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		x := tensor.New(2, 3)
		x.Set(bad, 1, 2)
		for _, codec := range []Codec{CodecFP16, CodecInt8} {
			_, err := Pack(x, codec)
			var nfe *NonFiniteError
			if !errors.As(err, &nfe) {
				t.Fatalf("%v/%v: error %v is not NonFiniteError", codec, bad, err)
			}
			if !errors.Is(err, ErrQuant) {
				t.Fatalf("%v: does not unwrap to ErrQuant", codec)
			}
			if nfe.Index != 5 {
				t.Fatalf("index %d, want 5", nfe.Index)
			}
		}
	}
	if _, err := Pack(nil, CodecInt8); !errors.Is(err, ErrQuant) {
		t.Fatalf("nil tensor: %v", err)
	}
	if _, err := Pack(tensor.New(2, 2), Codec(9)); !errors.Is(err, ErrQuant) {
		t.Fatal("unknown codec accepted")
	}
}

// Unpack validates hostile metadata: wire-decoded Packed structs are
// untrusted input.
func TestUnpackRejectsCorruptMetadata(t *testing.T) {
	cases := []*Packed{
		nil,
		{Codec: CodecInt8, Shape: []int{2, 2}, Data: make([]byte, 3), Scales: make([]float32, 2)}, // short data
		{Codec: CodecInt8, Shape: []int{2, 2}, Data: make([]byte, 4), Scales: make([]float32, 1)}, // wrong scale count
		{Codec: CodecFP16, Shape: []int{2, 2}, Data: make([]byte, 7)},                             // short fp16 data
		{Codec: CodecFP16, Shape: []int{2, 2}, Data: make([]byte, 8), Scales: make([]float32, 2)}, // scales on fp16
		{Codec: CodecFP32, Shape: []int{2, 2}, Data: make([]byte, 16)},                            // fp32 never packs
		{Codec: CodecInt8, Shape: []int{-1, 4}, Data: make([]byte, 4)},                            // negative dim
		{Codec: CodecInt8, Shape: []int{0}, Data: nil},                                            // zero dim
		{Codec: CodecInt8, Shape: []int{1 << 20, 1 << 20, 1 << 20}, Data: make([]byte, 4)},        // numel overflow
		{Codec: Codec(7), Shape: []int{2, 2}, Data: make([]byte, 4), Scales: make([]float32, 2)},  // unknown codec
	}
	for i, p := range cases {
		if _, err := p.Unpack(); !errors.Is(err, ErrQuant) {
			t.Fatalf("case %d: error %v does not wrap ErrQuant", i, err)
		}
	}
}

func TestPackedWireBytes(t *testing.T) {
	x := tensor.New(8, 64)
	x.Fill(1)
	raw := int64(x.Len()) * 4
	p8, err := Pack(x, CodecInt8)
	if err != nil {
		t.Fatal(err)
	}
	if got := p8.WireBytes(); got != 8*64+8*4 {
		t.Fatalf("int8 wire bytes %d", got)
	}
	// The acceptance criterion: int8 payloads are >= 60% smaller than
	// fp32 at any realistic activation shape.
	if float64(p8.WireBytes()) > 0.4*float64(raw) {
		t.Fatalf("int8 %dB not <=40%% of fp32 %dB", p8.WireBytes(), raw)
	}
	p16, err := Pack(x, CodecFP16)
	if err != nil {
		t.Fatal(err)
	}
	if got := p16.WireBytes(); got != raw/2 {
		t.Fatalf("fp16 wire bytes %d, want %d", got, raw/2)
	}
	if (*Packed)(nil).WireBytes() != 0 {
		t.Fatal("nil wire bytes")
	}
}
