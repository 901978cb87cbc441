package tensor

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Reference kernels: the naive loops the tiled implementations must
// reproduce bit for bit. Each accumulates in ascending p order per
// output element, exactly like the production kernels, so comparisons
// below demand exact equality rather than a tolerance. The float32
// conversion rounds the product before the add, as the kernels do, on
// platforms whose compiler would otherwise fuse the two.

func refMatMulAccum(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			for j := 0; j < n; j++ {
				dst.data[i*n+j] += float32(av * b.data[p*n+j])
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
				s += float32(a.data[i*k+p] * b.data[j*k+p])
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
				dst.data[i*n+j] += float32(av * b.data[p*n+j])
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

// boundaryShapes straddle every edge of the 4-row x 16-column tile at
// once (row remainders, the 8- and 16-lane vector edges, the packK
// block of MatMulT's reduction, an empty reduction), then add the
// products a perf-mid training step is made of and one product big
// enough to clear matmulParallelFlops, whose two row chunks each end in
// a partial tile.
var boundaryShapes = func() []struct{ m, k, n int } {
	shapes := []struct{ m, k, n int }{
		{2, 3, 5}, {63, 31, 17}, {64, 33, 19}, {65, 29, 21}, {66, 5, 1}, {7, 64, 65},
		{6, 2*packK + 3, 18},
		{64, 128, 512}, {64, 512, 128}, {32, 32, 32}, {64, 128, 8}, {64, 8, 128},
		{131, 257, 130},
	}
	for _, m := range []int{1, 3, 4, 5} {
		for _, k := range []int{0, 1, 2, packK - 1, packK, packK + 1} {
			for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 31, 33} {
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

// matmulVariants runs all four kernels on operands of shape s filled
// by fill, and the reference loops on the same operands; check
// compares each pair.
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
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	got, want := garbage(s.m, s.n), New(s.m, s.n)
	must(MatMul(got, a, b2))
	refMatMulAccum(want, a, b2)
	check(got, want, "MatMul")

	got, want = seed.Clone(), seed.Clone()
	must(MatMulAccum(got, a, b2))
	refMatMulAccum(want, a, b2)
	check(got, want, "MatMulAccum")

	got, want = garbage(s.m, s.n), New(s.m, s.n)
	must(MatMulT(got, a, bt))
	refMatMulT(want, a, bt)
	check(got, want, "MatMulT")

	got, want = seed.Clone(), seed.Clone()
	must(MatMulTAccum(got, at, b2))
	refMatMulTAccum(want, at, b2)
	check(got, want, "MatMulTAccum")
}

func TestMatMulVariantsMatchReferenceAtTileBoundaries(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	for _, par := range []int{1, 2, 8} {
		SetParallelism(par)
		for _, s := range boundaryShapes {
			rng := NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n))
			matmulVariants(t, s, func(x *Tensor) { x.FillNormal(rng, 1) },
				func(got, want *Tensor, label string) { expectBitIdentical(t, got, want, label) })
		}
	}
}

// TestMatMulVariantsOnSpecialValues feeds the kernels signed zeros,
// subnormals, values whose products overflow, infinities and NaNs.
// Every lane is an independent IEEE multiply then add, so the results
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
		for _, s := range []struct{ m, k, n int }{{8, 3, 16}, {9, 5, 33}, {5, packK + 2, 17}} {
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
	ranges := map[string]func(dst *Tensor, lo, hi int){
		"matmul": func(dst *Tensor, lo, hi int) {
			matmulRange(dst.data, a.data, b2.data, lo, hi, k, n, k, 1, false, false)
		},
		"matmulTAccum": func(dst *Tensor, lo, hi int) {
			matmulRange(dst.data, at.data, b2.data, lo, hi, k, n, 1, m, false, false)
		},
		"matmulT": func(dst *Tensor, lo, hi int) { matmulRange(dst.data, a.data, bt.data, lo, hi, k, n, k, 1, true, true) },
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
	softmaxRowRange(whole.data, seed.data, n, 0, m)
	for cut := 1; cut < m; cut++ {
		split := New(m, n)
		softmaxRowRange(split.data, seed.data, n, cut, m)
		softmaxRowRange(split.data, seed.data, n, 0, cut)
		expectBitIdentical(t, split, whole, "softmax")
	}
}

// TestMatMulRejectsAliasedDst pins the no-alias contract: dst sharing
// memory with either operand is an error in all four entry points,
// views of one backing array that do not overlap are fine.
func TestMatMulRejectsAliasedDst(t *testing.T) {
	sq := NewNormal(NewRNG(3), 1, 8, 8)
	other := NewNormal(NewRNG(4), 1, 8, 8)
	for name, op := range map[string]func(dst, a, b *Tensor) error{
		"MatMul": MatMul, "MatMulAccum": MatMulAccum, "MatMulT": MatMulT, "MatMulTAccum": MatMulTAccum,
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
	if err := MatMul(view(0, 4), view(3, 7), view(8, 12)); !errors.Is(err, ErrAlias) {
		t.Errorf("overlapping views: %v, want ErrAlias", err)
	}
	if err := MatMul(view(0, 4), view(4, 8), view(8, 12)); err != nil {
		t.Errorf("disjoint views of one array: %v", err)
	}
}

// TestSerialKernelsDoNotAllocate pins the serial path at 0 allocs/op:
// no closure, no error value, MatMulT's pack panel on the stack, and no
// temporary in softmax or the activation kernels.
func TestSerialKernelsDoNotAllocate(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(1)
	rng := NewRNG(6)
	const m, k, n = 9, packK + 3, 37
	a, at := NewNormal(rng, 1, m, k), NewNormal(rng, 1, k, m)
	b2, bt := NewNormal(rng, 1, k, n), NewNormal(rng, 1, n, k)
	dst := New(m, n)
	for name, op := range map[string]func() error{
		"MatMul":       func() error { return MatMul(dst, a, b2) },
		"MatMulAccum":  func() error { return MatMulAccum(dst, a, b2) },
		"MatMulT":      func() error { return MatMulT(dst, a, bt) },
		"MatMulTAccum": func() error { return MatMulTAccum(dst, at, b2) },
		"SoftmaxRows":  func() error { return SoftmaxRows(dst, dst) },
		"GELU":         func() error { return GELU(dst, dst) },
		"GELUBackward": func() error { return GELUBackward(dst, dst, dst) },
		"SiLU":         func() error { return SiLU(dst, dst) },
		"SiLUBackward": func() error { return SiLUBackward(dst, dst, dst) },
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
// package. The bit-identity argument needs each product rounded by
// VMULPS before VADDPS or VSUBPS uses it, one accumulator per lane, and
// exactly rounded quotients: a fused multiply-add, a dot product or a
// horizontal add anywhere breaks the first two, the approximate
// reciprocal instructions the third.
func TestAsmTileNeverFusesOrReassociates(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		code := regexp.MustCompile(`(?m)//.*$`).ReplaceAll(src, nil)
		if bad := regexp.MustCompile(`(?i)\bV?(FN?M(ADD|SUB)|DPPS|DPPD|HADD|HSUB|RCP|RSQRT)\w*`).Find(code); bad != nil {
			t.Fatalf("%s uses %s", file, bad)
		}
		for _, want := range []string{"VMULPS", "VADDPS", "VZEROUPPER"} {
			if !regexp.MustCompile(`\b` + want + `\b`).Match(code) {
				t.Fatalf("%s has no %s", file, want)
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

	m, k, n := 67, 45, 53
	rng := NewRNG(99)
	a := NewNormal(rng, 1, m, k)
	b2 := NewNormal(rng, 1, k, n)
	bt := NewNormal(rng, 1, n, k)
	at := NewNormal(rng, 1, k, m)
	// Softmax, Add and activation operands large enough to clear their
	// fan-out grains (softmaxGrainElems, elemwiseGrain, actGrain) so
	// the pooled path actually runs at parallelism > 1; the odd sizes
	// put every chunk boundary inside a vector.
	sx := NewNormal(rng, 1, 3001, 45)
	x := NewNormal(rng, 1, 300, 300)
	y := NewNormal(rng, 1, 300, 300)
	ax := NewNormal(rng, 2, 521, 523)
	ady := NewNormal(rng, 1, 521, 523)
	if sx.Len() <= softmaxGrainElems() || x.Len() <= elemwiseGrain || ax.Len() <= actGrain() {
		t.Fatal("operands no longer clear the fan-out grains")
	}

	type result struct{ mm, mma, mmt, mmta, sm, add, gelu, geluB, silu, siluB *Tensor }
	run := func(par int) result {
		SetParallelism(par)
		r := result{
			mm: New(m, n), mma: New(m, n), mmt: New(m, n),
			mmta: New(m, n), sm: New(3001, 45), add: New(300, 300),
			gelu: New(521, 523), geluB: New(521, 523), silu: New(521, 523), siluB: New(521, 523),
		}
		if err := MatMul(r.mm, a, b2); err != nil {
			t.Fatal(err)
		}
		if err := MatMulAccum(r.mma, a, b2); err != nil {
			t.Fatal(err)
		}
		if err := MatMulT(r.mmt, a, bt); err != nil {
			t.Fatal(err)
		}
		if err := MatMulTAccum(r.mmta, at, b2); err != nil {
			t.Fatal(err)
		}
		if err := SoftmaxRows(r.sm, sx); err != nil {
			t.Fatal(err)
		}
		if err := Add(r.add, x, y); err != nil {
			t.Fatal(err)
		}
		if err := GELU(r.gelu, ax); err != nil {
			t.Fatal(err)
		}
		if err := GELUBackward(r.geluB, ax, ady); err != nil {
			t.Fatal(err)
		}
		if err := SiLU(r.silu, ax); err != nil {
			t.Fatal(err)
		}
		if err := SiLUBackward(r.siluB, ax, ady); err != nil {
			t.Fatal(err)
		}
		return r
	}

	serial := run(1)
	for _, par := range []int{2, 8} {
		got := run(par)
		expectBitIdentical(t, got.mm, serial.mm, "MatMul")
		expectBitIdentical(t, got.mma, serial.mma, "MatMulAccum")
		expectBitIdentical(t, got.mmt, serial.mmt, "MatMulT")
		expectBitIdentical(t, got.mmta, serial.mmta, "MatMulTAccum")
		expectBitIdentical(t, got.sm, serial.sm, "SoftmaxRows")
		expectBitIdentical(t, got.add, serial.add, "Add")
		expectBitIdentical(t, got.gelu, serial.gelu, "GELU")
		expectBitIdentical(t, got.geluB, serial.geluB, "GELUBackward")
		expectBitIdentical(t, got.silu, serial.silu, "SiLU")
		expectBitIdentical(t, got.siluB, serial.siluB, "SiLUBackward")
	}
}
