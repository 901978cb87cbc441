//go:build !amd64 || purego

package tensor

// No assembly kernels on this GOARCH (or under the purego tag):
// haveAVX2 is the constant false, so ops.go and norm.go never call
// these.

func addAVX2(d, a, b *float32, n int) { panic("tensor: addAVX2 without AVX2") }

func axpyAVX2(d, x *float32, n int, alpha float32) { panic("tensor: axpyAVX2 without AVX2") }

func scaleAVX2(d *float32, n int, alpha float32) { panic("tensor: scaleAVX2 without AVX2") }

func layerNormRowAVX2(out, xhat, x, gamma, beta *float32, n int, mean, inv float32) {
	panic("tensor: layerNormRowAVX2 without AVX2")
}

func layerNormGradRowAVX2(dx, dy, xhat, gamma *float32, n int, k, nf, s, t float64) {
	panic("tensor: layerNormGradRowAVX2 without AVX2")
}

func layerNormParamGradAVX2(dg, db, dy, xhat *float32, n int) {
	panic("tensor: layerNormParamGradAVX2 without AVX2")
}
