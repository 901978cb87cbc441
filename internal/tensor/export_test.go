package tensor

import "slices"

// HandOffs reports how many chunks ParallelFor has handed to the pool
// since the process started.
func HandOffs() int64 { return handOffs.Load() }

// The kernel tiers, named as Tiers and WithTier take them: the 8-row
// AVX-512 matmul tile, the AVX2 kernels, and the portable Go twins
// every other build runs.
const (
	TierAVX512   = "avx512"
	TierAVX2     = "avx2"
	TierPortable = "portable"
)

func hasTier(tier string) bool { return slices.Contains(Tiers(), tier) }
