//go:build amd64 && !purego

package tensor

// cpuTiers is what this CPU can run, read before any WithTier call
// changes the dispatch flags.
var cpuTiers = func() []string {
	var tiers []string
	if haveAVX512 {
		tiers = append(tiers, TierAVX512)
	}
	if haveAVX2 {
		tiers = append(tiers, TierAVX2)
	}
	return append(tiers, TierPortable)
}()

// Tiers lists the kernel tiers this CPU runs, fastest first; the first
// is the one in use.
func Tiers() []string { return cpuTiers }

// WithTier runs f with the kernels dispatching as on a CPU whose best
// tier is tier. TierPortable computes exactly what a `-tags purego`
// build computes. It panics on a tier the CPU cannot run.
func WithTier(tier string, f func()) {
	prev2, prev512 := haveAVX2, haveAVX512
	defer func() { haveAVX2, haveAVX512 = prev2, prev512 }()
	switch {
	case !hasTier(tier):
		panic("tensor: this CPU cannot run tier " + tier)
	case tier == TierAVX2:
		haveAVX512 = false
	case tier == TierPortable:
		haveAVX2, haveAVX512 = false, false
	}
	f()
}
