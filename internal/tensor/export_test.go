package tensor

import "slices"

// HandOffs reports how many chunks ParallelFor has handed to the pool
// since the process started.
func HandOffs() int64 { return handOffs.Load() }

// FMARef is the exact once-rounded a·b + c every matmul tier computes
// per reduction step (fma_test.go).
func FMARef(a, b, c float32) float32 { return fmaRef(a, b, c) }

// The kernel tiers, named as Tiers and WithTier take them: the 8-row
// AVX-512 matmul tile, the AVX2 kernels, and the portable Go twins
// every other build runs.
const (
	TierAVX512   = "avx512"
	TierAVX2     = "avx2"
	TierPortable = "portable"
)

func hasTier(tier string) bool { return slices.Contains(Tiers(), tier) }
