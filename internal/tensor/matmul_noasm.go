//go:build !amd64 || purego

package tensor

// No assembly tile on this GOARCH (or under the purego tag): the
// portable tile in matmul.go does all the work.
const haveAVX2 = false

func tileAVX2(d *float32, ldd int, a *float32, ars, aps int, b *float32, ldb, k, cols int, zero bool) {
	panic("tensor: tileAVX2 without AVX2")
}

func packT8AVX2(panel, b *float32, k, blocks int) { panic("tensor: packT8AVX2 without AVX2") }
