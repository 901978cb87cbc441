//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestAsmTileMatchesGoTile drives tile, on every assembly tier the CPU
// has, against tileGo on random sub-tiles of larger buffers — every
// row count 1..8 (the whole AVX-512 tile, the AVX2 tile, and every
// remainder they leave to the next tier down) with every column count
// 1..32 (the AVX-512 tile's one- and two-vector loops, the AVX2 tile's
// two 16-column calls, each full vector and each masked edge), random
// leading dimensions, reduction lengths and column counts, both layouts
// of a, accumulating and overwriting, with and without a bias — whose
// values include −0, ±Inf and NaN, so a bias added anywhere but after
// the finished sum shows. Every element of the destination buffer
// outside the tile is a canary, and the whole buffer must come out with
// equal bits, so a store outside the tile fails too.
func TestAsmTileMatchesGoTile(t *testing.T) {
	tiers := Tiers()
	if len(tiers) < 2 {
		t.Skip("no assembly tile on this CPU")
	}
	canary := math.Float32frombits(0x7fc0dead)
	special := []float32{
		float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc0beef), math.Float32frombits(0xffc00123),
	}
	for _, tier := range tiers[:len(tiers)-1] {
		rng := NewRNG(2024)
		for iter := 0; iter < 4000; iter++ {
			// Each (rows, cols) pair comes up once per 256 iterations,
			// every other time with a bias.
			rows := 1 + iter%wideTileRows
			cols := 1 + iter/wideTileRows%wideTileCols
			withBias := iter/(wideTileRows*wideTileCols)%2 == 0
			k := 1 + rng.Intn(70)
			ldd := cols + rng.Intn(40)
			ldb := cols + rng.Intn(40)
			ars, aps := k+rng.Intn(9), 1 // a row-major
			if rng.Intn(2) == 0 {
				ars, aps = 1, rows+rng.Intn(9) // a transposed
			}
			zero := rng.Intn(2) == 0
			dOff, aOff, bOff := rng.Intn(5), rng.Intn(5), rng.Intn(5)

			d := New(1, dOff+(rows-1)*ldd+cols+rng.Intn(5))
			for i := range d.data {
				d.data[i] = canary
			}
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					d.data[dOff+r*ldd+c] = float32(rng.NormFloat64())
				}
			}
			a := NewNormal(rng, 1, aOff+(rows-1)*ars+(k-1)*aps+1)
			b := NewNormal(rng, 1, bOff+(k-1)*ldb+cols)
			var bias []float32
			if withBias {
				bias = NewNormal(rng, 1, cols).data
				for c := range bias {
					if rng.Intn(3) == 0 {
						bias[c] = special[rng.Intn(len(special))]
					}
				}
			}
			want := d.Clone()

			WithTier(tier, func() {
				tile(d.data[dOff:], ldd, a.data[aOff:], ars, aps, b.data[bOff:], ldb, k, rows, cols, zero, bias)
			})
			tileGo(want.data[dOff:], ldd, a.data[aOff:], ars, aps, b.data[bOff:], ldb, k, rows, cols, zero, bias)
			expectBitIdentical(t, d, want, fmt.Sprintf("%s tile %d (rows=%d k=%d cols=%d ldd=%d ldb=%d ars=%d aps=%d zero=%v bias=%v)",
				tier, iter, rows, k, cols, ldd, ldb, ars, aps, zero, bias != nil))
		}
	}
}
