//go:build !amd64 || purego

package tensor

// Tiers lists the kernel tiers this build runs: the portable twins only.
func Tiers() []string { return []string{TierPortable} }

// WithTier runs f; the portable tier is the only one this build has.
func WithTier(tier string, f func()) {
	if !hasTier(tier) {
		panic("tensor: this build cannot run tier " + tier)
	}
	f()
}
