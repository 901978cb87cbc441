//go:build amd64 && !purego

package tensor

// haveAVX2 selects the AVX2 tile; without AVX2 (or an OS that saves
// the YMM state) the portable tile in matmul.go runs instead.
var haveAVX2 = cpuHasAVX2()

// haveAVX512 selects the 8 x 32 AVX-512 tile on top of the AVX2 one,
// which still takes the row remainders.
var haveAVX512 = haveAVX2 && cpuHasAVX512()

func cpuHasAVX2() bool

func cpuHasAVX512() bool

//go:noescape
func tileAVX2(d *float32, ldd int, a *float32, ars, aps int, b *float32, ldb, k, cols int, zero bool, bias *float32)

//go:noescape
func tileAVX512(d *float32, ldd int, a *float32, ars, aps int, b *float32, ldb, k, cols int, zero bool, bias *float32)

//go:noescape
func packT8AVX2(panel, b *float32, k, ldp, blocks int)

// withPanel runs runPanelJob(j, panel) with a panel of panelFloats
// floats in its own frame, which the runtime does not clear.
//
//go:noescape
func withPanel(j *panelJob)
