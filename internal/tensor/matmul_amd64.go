//go:build amd64 && !purego

package tensor

// haveAVX2 selects the assembly tile; without AVX2 (or an OS that
// saves the YMM state) the portable tile in matmul.go runs instead.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func tileAVX2(d *float32, ldd int, a *float32, ars, aps int, b *float32, ldb, k, cols int, zero bool)

//go:noescape
func packT8AVX2(panel, b *float32, k, blocks int)
