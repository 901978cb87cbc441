//go:build amd64 && !purego

package tensor

// HaveAVX2 reports whether the assembly tile is in use.
func HaveAVX2() bool { return haveAVX2 }

// WithoutAVX2 runs f with the assembly tile switched off, which makes
// this build compute exactly what a `-tags purego` build computes.
func WithoutAVX2(f func()) {
	prev := haveAVX2
	haveAVX2 = false
	defer func() { haveAVX2 = prev }()
	f()
}
