package fleet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"menos/internal/fleet"
)

// pinnedPolicyDigest is the SHA-256 of the "policy" placer's answers —
// chosen server ID or error text — over policyCorpus, recorded at the
// predicate/priority implementation.
const pinnedPolicyDigest = "d9e480dd5e06100c0174ec8de494f90136f79053689e030b5ffb80934deca37a"

// policyCorpus builds n seeded random fleets with a client each: 1–12
// servers with shuffled distinct IDs, every admission state, capacity
// 0–32 GiB, random used and committed bytes, random resident model
// sets and a demand of 0–11 GiB. No server is draining. The first fleet
// is empty.
func policyCorpus(n int) ([][]fleet.ServerLoad, []fleet.ClientInfo) {
	const gib = int64(1) << 30
	rng := rand.New(rand.NewSource(35))
	models := []string{"a", "b", "c"}
	fleets := make([][]fleet.ServerLoad, n)
	clients := make([]fleet.ClientInfo, n)
	for f := range fleets {
		size := 1 + rng.Intn(12)
		if f == 0 {
			size = 0
		}
		ids := rng.Perm(40)[:size]
		for _, id := range ids {
			capacity := rng.Int63n(32*gib + 1)
			var resident []string
			for _, m := range models {
				if rng.Intn(2) == 0 {
					resident = append(resident, m)
				}
			}
			fleets[f] = append(fleets[f], fleet.ServerLoad{
				ID:             id,
				Clients:        rng.Intn(9),
				QueueDepth:     rng.Intn(6),
				UsedBytes:      rng.Int63n(capacity + 4*gib + 1),
				Admission:      fleet.AdmissionState(rng.Intn(3)),
				CommittedBytes: rng.Int63n(8*gib + 1),
				CapacityBytes:  capacity,
				Models:         resident,
			})
		}
		demand := rng.Int63n(11*gib + 1)
		persistent := rng.Int63n(demand + 1)
		clients[f] = fleet.ClientInfo{
			ID:                 fmt.Sprintf("c%d", f),
			BaseModel:          []string{"", "a", "b", "c", "d"}[rng.Intn(5)],
			PersistentBytes:    persistent,
			TransientPeakBytes: demand - persistent,
		}
	}
	return fleets, clients
}

// TestPolicyPlacerIsPinned pins every choice and every error the
// "policy" placer makes over a seeded corpus of fleets. The corpus must
// reach the relaxation pass (no server both fits and is below
// shedding) and the empty fleet, so all three of the policy's branches
// are in the digest.
func TestPolicyPlacerIsPinned(t *testing.T) {
	fleets, clients := policyCorpus(20000)
	p, err := fleet.PlacerByName("policy")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	relaxed, errs := 0, 0
	for i, servers := range fleets {
		c := clients[i]
		fits := false
		for _, s := range servers {
			if s.FreeBytes() >= c.PersistentBytes+c.TransientPeakBytes && s.Admission < fleet.AdmissionShedding {
				fits = true
			}
		}
		if !fits && len(servers) > 0 {
			relaxed++
		}
		id, err := p.Place(c, servers)
		if err != nil {
			errs++
			fmt.Fprintf(h, "%d err %v\n", i, err)
			continue
		}
		fmt.Fprintf(h, "%d %d\n", i, id)
	}
	if relaxed < 1000 || errs != 1 {
		t.Fatalf("corpus reaches the relaxation pass %d times and errors %d times, want ≥ 1000 and exactly 1 (the empty fleet)", relaxed, errs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedPolicyDigest {
		t.Fatalf("policy placements digest %s, want %s", got, pinnedPolicyDigest)
	}
}
