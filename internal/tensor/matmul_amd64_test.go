//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"testing"
)

// TestAsmTileMatchesGoTile drives the two tiles directly on random
// sub-tiles of larger buffers — random leading dimensions, reduction
// lengths, column counts, both layouts of a, accumulating and
// overwriting — and demands equal bits over the whole destination
// buffer, so a store outside the tile fails too.
func TestAsmTileMatchesGoTile(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := NewRNG(2024)
	for iter := 0; iter < 2000; iter++ {
		k := 1 + rng.Intn(70)
		cols := 1 + rng.Intn(tileCols)
		ldd := cols + rng.Intn(40)
		ldb := cols + rng.Intn(40)
		ars, aps := k+rng.Intn(9), 1 // a row-major
		if rng.Intn(2) == 0 {
			ars, aps = 1, tileRows+rng.Intn(9) // a transposed
		}
		zero := rng.Intn(2) == 0
		dOff, aOff, bOff := rng.Intn(5), rng.Intn(5), rng.Intn(5)

		d := NewNormal(rng, 1, dOff+(tileRows-1)*ldd+cols+rng.Intn(5))
		a := NewNormal(rng, 1, aOff+(tileRows-1)*ars+(k-1)*aps+1)
		b := NewNormal(rng, 1, bOff+(k-1)*ldb+cols)
		want := d.Clone()

		tileAVX2(&d.data[dOff], ldd, &a.data[aOff], ars, aps, &b.data[bOff], ldb, k, cols, zero)
		tileGo(want.data[dOff:], ldd, a.data[aOff:], ars, aps, b.data[bOff:], ldb, k, tileRows, cols, zero)
		expectBitIdentical(t, d, want, fmt.Sprintf("tile %d (k=%d cols=%d ldd=%d ldb=%d ars=%d aps=%d zero=%v)",
			iter, k, cols, ldd, ldb, ars, aps, zero))
	}
}
