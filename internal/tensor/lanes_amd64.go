//go:build amd64 && !purego

package tensor

// laneMask is eight all-ones words then eight zero words: the eight
// words starting at word 8-n are the mask of the first n lanes of a YMM
// register. The kernels in exp_amd64.s, lanes_amd64.s and adam_amd64.s
// load their tail masks from it.
var laneMask = [16]uint32{
	^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0),
	^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0),
}

// The kernels of lanes_amd64.s compute, on each of n >= 1 elements,
// exactly what the Go loop they replace computes on one, and neither
// read nor write past element n-1.

//go:noescape
func addAVX2(d, a, b *float32, n int)

//go:noescape
func mulAVX2(d, a, b *float32, n int)

//go:noescape
func axpyAVX2(d, x *float32, n int, alpha float32)

//go:noescape
func scaleAVX2(d *float32, n int, alpha float32)

//go:noescape
func layerNormRowAVX2(out, xhat, x, gamma, beta *float32, n int, mean, inv float32)

//go:noescape
func layerNormGradRowAVX2(dx, dy, xhat, gamma *float32, n int, k, nf, s, t float64)

//go:noescape
func layerNormParamGradAVX2(dg, db, dy, xhat *float32, n int)

//go:noescape
func rowSums8AVX2(x *float32, ld, n int, sum *[laneRows]float64)

//go:noescape
func rowSqDev8AVX2(x *float32, ld, n int, mean, sq *[laneRows]float64)

//go:noescape
func gradSums8AVX2(dy, xhat *float32, ld int, gamma *float32, n int, st *[2 * laneRows]float64)

//go:noescape
func adamAVX2(p, gr, m, v *float32, n int, k *adamK)
