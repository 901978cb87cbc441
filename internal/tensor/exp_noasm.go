//go:build !amd64 || purego

package tensor

// No assembly kernels on this GOARCH (or under the purego tag):
// haveAVX2 and haveAVX512 are the constant false, so exp.go never calls
// these.

func expShiftAVX2(dst, src *float32, n int, shift float32) {
	panic("tensor: expShiftAVX2 without AVX2")
}

func geluAVX2(dst, x *float32, n int) { panic("tensor: geluAVX2 without AVX2") }

func geluGradAVX2(dx, x, dy *float32, n int) { panic("tensor: geluGradAVX2 without AVX2") }

func siluAVX2(dst, x *float32, n int) { panic("tensor: siluAVX2 without AVX2") }

func siluGradAVX2(dx, x, dy *float32, n int) { panic("tensor: siluGradAVX2 without AVX2") }

func expShiftAVX512(dst, src *float32, n int, shift float32) {
	panic("tensor: expShiftAVX512 without AVX-512")
}

func geluAVX512(dst, x *float32, n int) { panic("tensor: geluAVX512 without AVX-512") }

func geluGradAVX512(dx, x, dy *float32, n int) { panic("tensor: geluGradAVX512 without AVX-512") }

func siluAVX512(dst, x *float32, n int) { panic("tensor: siluAVX512 without AVX-512") }

func siluGradAVX512(dx, x, dy *float32, n int) { panic("tensor: siluGradAVX512 without AVX-512") }
