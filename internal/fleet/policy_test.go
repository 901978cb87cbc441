package fleet

import (
	"errors"
	"strings"
	"testing"
)

// load builds a ServerLoad row for policy tests.
func load(id int, clients int, used, capacity int64, models ...string) ServerLoad {
	return ServerLoad{
		ID: id, Clients: clients, UsedBytes: used,
		CapacityBytes: capacity, Models: models,
	}
}

func TestPolicyPredicateFiltersInfeasible(t *testing.T) {
	p := DefaultPolicy()
	servers := []ServerLoad{
		load(0, 0, 31*gib, 32*gib, "m"), // 1 GiB free: too tight
		load(1, 3, 8*gib, 32*gib, "m"),  // busier but fits
	}
	id, err := p.Place(ClientInfo{ID: "c", BaseModel: "m", TransientPeakBytes: 2 * gib}, servers)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("placed on %d, want 1 (server 0 cannot fit the demand)", id)
	}
}

func TestPolicyPrefersModelResidency(t *testing.T) {
	p := DefaultPolicy()
	servers := []ServerLoad{
		load(0, 1, 8*gib, 32*gib, "other"),
		load(1, 1, 8*gib, 32*gib, "m"),
	}
	id, err := p.Place(ClientInfo{ID: "c", BaseModel: "m", TransientPeakBytes: gib}, servers)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("placed on %d, want 1 (base model already resident)", id)
	}
}

func TestPolicyTieBreaksLowestID(t *testing.T) {
	p := DefaultPolicy()
	servers := []ServerLoad{
		load(2, 1, 8*gib, 32*gib, "m"),
		load(7, 1, 8*gib, 32*gib, "m"),
	}
	id, err := p.Place(ClientInfo{ID: "c", BaseModel: "m", TransientPeakBytes: gib}, servers)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("placed on %d, want lowest ID 2 on a tie", id)
	}
}

func TestPolicyRelaxesWhenNothingFits(t *testing.T) {
	p := DefaultPolicy()
	// Both servers are full; the policy must overcommit, not refuse.
	servers := []ServerLoad{
		load(0, 4, 32*gib, 32*gib, "m"),
		load(1, 1, 32*gib, 32*gib, "m"),
	}
	id, err := p.Place(ClientInfo{ID: "c", BaseModel: "m", TransientPeakBytes: gib}, servers)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("relaxed placement on %d, want the less crowded 1", id)
	}
}

func TestPolicySkipsDrainingAndShedding(t *testing.T) {
	p := DefaultPolicy()
	servers := []ServerLoad{
		{ID: 0, CapacityBytes: 32 * gib, Draining: true},
		{ID: 1, CapacityBytes: 32 * gib, Admission: AdmissionShedding},
		{ID: 2, CapacityBytes: 32 * gib, Clients: 5},
	}
	id, err := p.Place(ClientInfo{ID: "c", TransientPeakBytes: gib}, servers)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("placed on %d, want 2 (0 draining, 1 shedding)", id)
	}
}

func TestPolicyAllDrainingErrors(t *testing.T) {
	p := DefaultPolicy()
	servers := []ServerLoad{{ID: 0, Draining: true}}
	if _, err := p.Place(ClientInfo{ID: "c"}, servers); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
}

func TestPolicyByName(t *testing.T) {
	p, err := PlacerByName("policy")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "policy" {
		t.Fatalf("name = %q", p.Name())
	}
	if !strings.Contains(p.(*PolicyPlacer).Describe(), "fits-memory") {
		t.Fatalf("describe = %q, want predicate list", p.(*PolicyPlacer).Describe())
	}
}

func TestPolicyWorksUnderManager(t *testing.T) {
	m := newTestManager(t, DefaultPolicy(), 3)
	seen := map[int]int{}
	for _, id := range []string{"a", "b", "c"} {
		srv, err := m.Place(ClientInfo{ID: id, BaseModel: "m", TransientPeakBytes: gib})
		if err != nil {
			t.Fatal(err)
		}
		seen[srv]++
	}
	if len(seen) != 3 {
		t.Fatalf("placements %v, want one client per server", seen)
	}
}
