package tensor

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// Reference kernels: the naive loops the tiled implementations must
// reproduce bit for bit. Each accumulates in ascending p order per
// output element, exactly like the production kernels, and each step
// is fmaRef, the exact once-rounded multiply-add (fma_test.go), not the
// portable tile's own arithmetic — so comparisons below demand exact
// equality rather than a tolerance, and a -tags purego run does not
// check the portable tile against itself.

func refMatMulAccum(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			for j := 0; j < n; j++ {
				dst.data[i*n+j] = fmaRef(av, b.data[p*n+j], dst.data[i*n+j])
			}
		}
	}
}

func refMatMulT(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s = fmaRef(a.data[i*k+p], b.data[j*k+p], s)
			}
			dst.data[i*n+j] = s
		}
	}
}

func refMatMulTAccum(dst, a, b *Tensor) {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[p*m+i]
			for j := 0; j < n; j++ {
				dst.data[i*n+j] = fmaRef(av, b.data[p*n+j], dst.data[i*n+j])
			}
		}
	}
}

// expectBitIdentical fails unless got and want agree in every bit.
func expectBitIdentical(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if len(got.data) != len(want.data) {
		t.Fatalf("%s: length %d vs %d", label, len(got.data), len(want.data))
	}
	for i := range got.data {
		if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
			t.Fatalf("%s: element %d differs: %g (%#x) vs %g (%#x)",
				label, i, got.data[i], math.Float32bits(got.data[i]),
				want.data[i], math.Float32bits(want.data[i]))
		}
	}
}

// boundaryShapes straddle every edge of the 8 x 32 and 4 x 16 tiles at
// once (the 8-row block and the AVX2/Go remainders it leaves, the 8-
// and 16-lane vector edges and the 32-column panel, the packK block of
// MatMulT's reduction, an empty reduction), then add the products a
// perf-mid training step is made of and one product big enough to clear
// fanOutWork, whose two row chunks each end in a partial tile.
var boundaryShapes = func() []struct{ m, k, n int } {
	shapes := []struct{ m, k, n int }{
		{2, 3, 5}, {63, 31, 17}, {64, 33, 19}, {65, 29, 21}, {66, 5, 1}, {7, 64, 65},
		{6, 2*packK + 3, 18}, {9, 2*packK + 1, 33},
		{64, 128, 512}, {64, 512, 128}, {32, 32, 32}, {64, 128, 8}, {64, 8, 128},
		{131, 257, 130},
	}
	for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 16, 17, 24} {
		for _, k := range []int{0, 1, 2, packK - 1, packK, packK + 1} {
			for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 96} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return shapes
}()

// garbage returns an (m,n) tensor no correct kernel output contains:
// NaNs with distinct payloads, infinities, and huge finite values. The
// overwriting variants must ignore every bit of it.
func garbage(m, n int) *Tensor {
	t := New(m, n)
	for i := range t.data {
		switch i % 4 {
		case 0:
			t.data[i] = math.Float32frombits(0x7fc00000 | uint32(i+1)&0x3fffff)
		case 1:
			t.data[i] = math.Float32frombits(0xff800001 + uint32(i)&0xffff) // signalling NaNs
		case 2:
			t.data[i] = float32(math.Inf(i%8 - 4))
		default:
			t.data[i] = -math.MaxFloat32
		}
	}
	return t
}

// matmulVariants runs the reference loops once on operands of shape s
// filled by fill, then all four kernels on the same operands at
// parallelism 1, 2 and 8; check compares each kernel's output with its
// reference.
func matmulVariants(t *testing.T, s struct{ m, k, n int }, fill func(*Tensor), check func(got, want *Tensor, label string)) {
	t.Helper()
	operand := func(shape ...int) *Tensor {
		x := New(shape...)
		fill(x)
		return x
	}
	a := operand(s.m, s.k)
	b2 := operand(s.k, s.n)
	bt := operand(s.n, s.k)
	at := operand(s.k, s.m)
	seed := operand(s.m, s.n)
	bias := operand(s.n)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	want := New(s.m, s.n)
	refMatMulAccum(want, a, b2)
	wantBias := want.Clone()
	for i := range wantBias.data {
		wantBias.data[i] += bias.data[i%s.n]
	}
	wantT := New(s.m, s.n)
	refMatMulT(wantT, a, bt)
	wantTAccum := seed.Clone()
	refMatMulTAccum(wantTAccum, at, b2)

	prev := Parallelism()
	defer SetParallelism(prev)
	for _, par := range []int{1, 2, 8} {
		SetParallelism(par)
		label := func(kernel string) string { return fmt.Sprintf("%s at parallelism %d", kernel, par) }

		got := garbage(s.m, s.n)
		must(MatMul(got, a, b2))
		check(got, want, label("MatMul"))

		got = garbage(s.m, s.n)
		must(MatMulBias(got, a, b2, bias))
		check(got, wantBias, label("MatMulBias"))

		got = garbage(s.m, s.n)
		must(MatMulT(got, a, bt))
		check(got, wantT, label("MatMulT"))

		got = seed.Clone()
		must(MatMulTAccum(got, at, b2))
		check(got, wantTAccum, label("MatMulTAccum"))
	}
}

func TestMatMulVariantsMatchReferenceAtTileBoundaries(t *testing.T) {
	for _, s := range boundaryShapes {
		rng := NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n))
		matmulVariants(t, s, func(x *Tensor) { x.FillNormal(rng, 1) },
			func(got, want *Tensor, label string) { expectBitIdentical(t, got, want, label) })
	}
}

// TestMatMulVariantsOnSpecialValues feeds the kernels signed zeros,
// subnormals, values whose products overflow, infinities and NaNs.
// Every lane is an independent IEEE fused multiply-add, so the results
// must still equal the reference bit for bit — except that where both
// are NaN the payload is not compared: which operand's payload survives
// NaN*NaN or NaN+NaN depends on operand order, which neither the Go
// compiler nor this package pins.
func TestMatMulVariantsOnSpecialValues(t *testing.T) {
	finite := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		math.MaxFloat32, -math.MaxFloat32, 1e-30, 1e30,
	}
	nonFinite := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for name, palette := range map[string][]float32{"finite": finite, "nonfinite": append(nonFinite, finite...)} {
		for _, s := range []struct{ m, k, n int }{{8, 3, 16}, {9, 5, 33}, {9, 5, 65}, {5, packK + 2, 17}} {
			rng := NewRNG(uint64(len(palette)*1000 + s.n))
			fill := func(x *Tensor) {
				x.FillNormal(rng, 1)
				for i := range x.data {
					if rng.Intn(4) == 0 {
						x.data[i] = palette[rng.Intn(len(palette))]
					}
				}
			}
			matmulVariants(t, s, fill, func(got, want *Tensor, label string) {
				for i := range got.data {
					g, w := got.data[i], want.data[i]
					if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
						t.Fatalf("%s %s %v: element %d differs: %g (%#x) vs %g (%#x)",
							name, label, s, i, g, math.Float32bits(g), w, math.Float32bits(w))
					}
				}
			})
		}
	}
}

// TestRowRangesBitIdenticalAtAnySplit cuts the output rows at every
// position: a cut moves which rows land in full tiles (the assembly
// tile, where there is one) and which in the remainder (the portable
// tile), and none of that may show in the bits. This is the property
// ParallelFor's row partitioning rests on, checked without depending on
// where the fan-out threshold sits.
func TestRowRangesBitIdenticalAtAnySplit(t *testing.T) {
	const m, k, n = 11, packK + 5, 21
	rng := NewRNG(7)
	a := NewNormal(rng, 1, m, k)
	at := NewNormal(rng, 1, k, m)
	b2 := NewNormal(rng, 1, k, n)
	bt := NewNormal(rng, 1, n, k)
	seed := NewNormal(rng, 1, m, n)
	bias := NewNormal(rng, 1, n)
	ranges := map[string]func(dst *Tensor, lo, hi int){
		"matmul": func(dst *Tensor, lo, hi int) {
			matmulRange(dst.data, a.data, b2.data, nil, lo, hi, k, n, n, k, 1, n, false, false)
		},
		"matmulBias": func(dst *Tensor, lo, hi int) {
			matmulRange(dst.data, a.data, b2.data, bias.data, lo, hi, k, n, n, k, 1, n, false, true)
		},
		"matmulTAccum": func(dst *Tensor, lo, hi int) {
			matmulRange(dst.data, at.data, b2.data, nil, lo, hi, k, n, n, 1, m, n, false, false)
		},
		"matmulT": func(dst *Tensor, lo, hi int) {
			matmulRange(dst.data, a.data, bt.data, nil, lo, hi, k, n, n, k, 1, k, true, true)
		},
	}
	for name, run := range ranges {
		whole := seed.Clone()
		run(whole, 0, m)
		for cut := 1; cut < m; cut++ {
			split := seed.Clone()
			run(split, cut, m)
			run(split, 0, cut)
			expectBitIdentical(t, split, whole, name)
		}
	}

	// The vector kernels are cut at every element, not every row: a
	// cut moves which elements share a vector and which fall in a
	// masked tail, and where a ParallelFor chunk or a batched row
	// segment ends must not show either. Softmax is row-local, so its
	// cuts are row cuts.
	const elems = m * n
	x, dy := NewNormal(rng, 2, elems), NewNormal(rng, 1, elems)
	elementwise := map[string]func(dst *Tensor, lo, hi int){
		"gelu":     func(dst *Tensor, lo, hi int) { geluRange(dst.data[lo:hi], x.data[lo:hi]) },
		"geluGrad": func(dst *Tensor, lo, hi int) { geluGradRange(dst.data[lo:hi], x.data[lo:hi], dy.data[lo:hi]) },
		"silu":     func(dst *Tensor, lo, hi int) { siluRange(dst.data[lo:hi], x.data[lo:hi]) },
		"siluGrad": func(dst *Tensor, lo, hi int) { siluGradRange(dst.data[lo:hi], x.data[lo:hi], dy.data[lo:hi]) },
		"expShift": func(dst *Tensor, lo, hi int) { expShift(dst.data[lo:hi], x.data[lo:hi], 0.5) },
	}
	for name, run := range elementwise {
		whole := New(elems)
		run(whole, 0, elems)
		for cut := 1; cut < elems; cut++ {
			split := New(elems)
			run(split, cut, elems)
			run(split, 0, cut)
			expectBitIdentical(t, split, whole, name)
		}
	}
	whole := New(m, n)
	softmaxRowRange(whole.data, seed.data, n, n, 0, m)
	for cut := 1; cut < m; cut++ {
		split := New(m, n)
		softmaxRowRange(split.data, seed.data, n, n, cut, m)
		softmaxRowRange(split.data, seed.data, n, n, 0, cut)
		expectBitIdentical(t, split, whole, "softmax")
	}
}

// TestMatMulRejectsAliasedDst pins the no-alias contract: dst sharing
// memory with any operand is an error in every entry point,
// views of one backing array that do not overlap are fine.
func TestMatMulRejectsAliasedDst(t *testing.T) {
	sq := NewNormal(NewRNG(3), 1, 8, 8)
	other := NewNormal(NewRNG(4), 1, 8, 8)
	for name, op := range map[string]func(dst, a, b *Tensor) error{
		"MatMul": MatMul, "MatMulT": MatMulT, "MatMulTAccum": MatMulTAccum,
		"MatMulBias": func(dst, a, b *Tensor) error { return MatMulBias(dst, a, b, nil) },
	} {
		if err := op(sq, sq, other); !errors.Is(err, ErrAlias) {
			t.Errorf("%s(x, x, y) = %v, want ErrAlias", name, err)
		}
		if err := op(sq, other, sq); !errors.Is(err, ErrAlias) {
			t.Errorf("%s(x, y, x) = %v, want ErrAlias", name, err)
		}
		if err := op(New(8, 8), sq, sq); err != nil {
			t.Errorf("%s with a == b: %v", name, err)
		}
	}

	// Row views of one 12x4 backing array.
	backing := NewNormal(NewRNG(5), 1, 12, 4)
	view := func(lo, hi int) *Tensor {
		v, err := backing.Slice2D(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if err := MatMulBias(sq, other, other, sq.Row(0)); !errors.Is(err, ErrAlias) {
		t.Errorf("MatMulBias with the bias in dst: %v, want ErrAlias", err)
	}
	if err := MatMul(view(0, 4), view(3, 7), view(8, 12)); !errors.Is(err, ErrAlias) {
		t.Errorf("overlapping views: %v, want ErrAlias", err)
	}
	if err := MatMul(view(0, 4), view(4, 8), view(8, 12)); err != nil {
		t.Errorf("disjoint views of one array: %v", err)
	}
}

// TestSerialKernelsDoNotAllocate pins the serial path at 0 allocs/op:
// no closure, no error value, MatMulT's pack panel on the stack, and no
// temporary in softmax, the activation, the elementwise or the
// LayerNorm kernels.
func TestSerialKernelsDoNotAllocate(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(1)
	rng := NewRNG(6)
	const m, k, n = 9, packK + 3, 37
	a, at := NewNormal(rng, 1, m, k), NewNormal(rng, 1, k, m)
	b2, bt := NewNormal(rng, 1, k, n), NewNormal(rng, 1, n, k)
	dst := New(m, n)
	bias, gamma, inv := NewNormal(rng, 1, n), NewNormal(rng, 1, n), New(m)
	xhat, dx, dg, db := New(m, n), New(m, n), New(n), New(n)
	for name, op := range map[string]func() error{
		"MatMul":       func() error { return MatMul(dst, a, b2) },
		"MatMulBias":   func() error { return MatMulBias(dst, a, b2, bias) },
		"MatMulT":      func() error { return MatMulT(dst, a, bt) },
		"MatMulTAccum": func() error { return MatMulTAccum(dst, at, b2) },
		"SoftmaxRows":  func() error { return SoftmaxRows(dst, dst) },
		"GELU":         func() error { return GELU(dst, dst) },
		"GELUBackward": func() error { return GELUBackward(dst, dst, dst) },
		"SiLU":         func() error { return SiLU(dst, dst) },
		"SiLUBackward": func() error { return SiLUBackward(dst, dst, dst) },
		"Add":          func() error { return Add(dst, dst, dst) },
		"Mul":          func() error { return Mul(dst, dst, dst) },
		"AXPY":         func() error { return AXPY(0.5, dst, dst) },
		"Scale":        func() error { dst.Scale(0.5); return nil },
		"LayerNorm":    func() error { return LayerNorm(dst, xhat, inv, dx, gamma, bias, 1e-5) },
		"LayerNormBackward": func() error {
			return LayerNormBackward(dx, dg, db, dst, xhat, inv, gamma)
		},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op on the serial path, want 0", name, allocs)
		}
	}
}

// TestAsmTileNeverFusesOrReassociates reads every assembly file of the
// package — the tiles, the exp kernels, the residual and LayerNorm lane
// kernels and Adam's — and fails if one it expects is missing. The
// bit-identity argument needs each product rounded by VMULPS (VMULPD in
// LayerNorm's and Adam's float64 lanes) before an add or subtract uses
// it, one accumulator per lane, and exactly rounded quotients and square
// roots (VDIVPS, VDIVPD, VSQRTPD): a
// fused multiply-add, a dot product or a horizontal add anywhere breaks
// the first two, the approximate reciprocal instructions the third.
// The one exception is the matmul tile's reduction step, which is one
// fused multiply-add in every tier (tileGo computes it exactly): its
// VFMADD231PS is allowed inside the ROW and ROW16 macro bodies of
// matmul_amd64.s and nowhere else, and that file must issue it where
// the others must issue VMULPS. An AVX-512 rounding or SAE suffix
// overrides MXCSR's round-to-nearest for that one instruction, and the
// AVX512ER approximations (VEXP2PS, VRCP28*, VRSQRT28*) are not the
// correctly rounded operations the portable twins compute.
func TestAsmTileNeverFusesOrReassociates(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"matmul_amd64.s", "exp_amd64.s", "lanes_amd64.s", "adam_amd64.s"} {
		if !slices.Contains(files, want) {
			t.Fatalf("%s not found among %v", want, files)
		}
	}
	tileMacro := regexp.MustCompile(`(?m)^#define ROW(16)?\(.*\\\n(.*\\\n)*.*$`)
	tileFMA := regexp.MustCompile(`\bVFMADD231PS(\.BCST)?[ \t]`)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		code := regexp.MustCompile(`(?m)//.*$`).ReplaceAll(src, nil)
		want := []string{"VMULPS", "VADDPS", "VZEROUPPER"}
		if file == "matmul_amd64.s" {
			macros := tileMacro.FindAll(code, -1)
			if len(macros) != 2 {
				t.Fatalf("%s: found %d ROW/ROW16 macro bodies, want 2", file, len(macros))
			}
			code = tileMacro.ReplaceAllFunc(code, func(body []byte) []byte {
				return tileFMA.ReplaceAll(body, []byte("FUSED "))
			})
			want = []string{"FUSED", "VADDPS", "VZEROUPPER"}
		}
		if bad := regexp.MustCompile(`(?i)\bV?(FN?M(ADD|SUB)|DPPS|DPPD|HADD|HSUB|RCP|RSQRT|EXP2)\w*`).Find(code); bad != nil {
			t.Fatalf("%s uses %s", file, bad)
		}
		if bad := regexp.MustCompile(`(?i)\b\w+\.(R[NZDU]_)?SAE\b`).Find(code); bad != nil {
			t.Fatalf("%s uses %s, which overrides MXCSR rounding", file, bad)
		}
		for _, w := range want {
			if !regexp.MustCompile(`\b` + w + `\b`).Match(code) {
				t.Fatalf("%s has no %s", file, w)
			}
		}
	}
}

// TestKernelsBitIdenticalAcrossParallelism pins constraint #1 of the
// worker pool: every kernel must produce the same bits at any
// parallelism setting.
func TestKernelsBitIdenticalAcrossParallelism(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)

	// Every operand is just past fanOutWork, so each kernel splits into
	// two chunks at parallelism > 1 and hands one to the pool (checked
	// below); the odd sizes end the matmul chunk inside a row tile and
	// the elementwise chunks inside a vector. One (x, y) pair of er x ec
	// operands serves softmax, Add and the activations.
	m, k, n := 67, 301, 257
	const er, ec = 2053, 2045
	rng := NewRNG(99)
	a := NewNormal(rng, 1, m, k)
	b2 := NewNormal(rng, 1, k, n)
	bt := NewNormal(rng, 1, n, k)
	at := NewNormal(rng, 1, k, m)
	x := NewNormal(rng, 2, er, ec)
	y := NewNormal(rng, 1, er, ec)

	// Kernel by kernel into two reused buffers, which keeps the test's
	// heap (and the race detector's shadow of it) near four operands.
	serialBuf, gotBuf := make([]float32, er*ec), make([]float32, er*ec)
	for _, kern := range []struct {
		name       string
		rows, cols int
		run        func(dst *Tensor) error
	}{
		{"MatMul", m, n, func(dst *Tensor) error { return MatMul(dst, a, b2) }},
		{"MatMulT", m, n, func(dst *Tensor) error { return MatMulT(dst, a, bt) }},
		{"MatMulTAccum", m, n, func(dst *Tensor) error { return MatMulTAccum(dst, at, b2) }},
		{"SoftmaxRows", er, ec, func(dst *Tensor) error { return SoftmaxRows(dst, x) }},
		{"Add", er, ec, func(dst *Tensor) error { return Add(dst, x, y) }},
		{"GELU", er, ec, func(dst *Tensor) error { return GELU(dst, x) }},
		{"GELUBackward", er, ec, func(dst *Tensor) error { return GELUBackward(dst, x, y) }},
		{"SiLU", er, ec, func(dst *Tensor) error { return SiLU(dst, x) }},
		{"SiLUBackward", er, ec, func(dst *Tensor) error { return SiLUBackward(dst, x, y) }},
	} {
		run := func(par int, buf []float32) *Tensor {
			SetParallelism(par)
			buf = buf[:kern.rows*kern.cols]
			clear(buf)
			dst := &Tensor{data: buf, shape: []int{kern.rows, kern.cols}}
			before := handOffs.Load()
			if err := kern.run(dst); err != nil {
				t.Fatal(err)
			}
			if par > 1 && handOffs.Load() == before {
				t.Fatalf("%s at parallelism %d handed nothing to the pool", kern.name, par)
			}
			return dst
		}
		serial := run(1, serialBuf)
		for _, par := range []int{2, 8} {
			expectBitIdentical(t, run(par, gotBuf), serial, kern.name)
		}
	}
}
