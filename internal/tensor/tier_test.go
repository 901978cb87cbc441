package tensor

import "testing"

// TestTileTier logs which kernel tier this run exercises, so a CI log
// says whether the AVX-512 tile's tests ran or skipped on its runner.
func TestTileTier(t *testing.T) {
	tiers := Tiers()
	if tiers[len(tiers)-1] != TierPortable {
		t.Fatalf("tiers %v do not end with the portable reference", tiers)
	}
	t.Logf("kernel tier in use: %s (this CPU runs %v)", tiers[0], tiers)
}
