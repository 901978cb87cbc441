package batch

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"menos/internal/sched"
)

// The formation policy is tested here on the clock-free core, one
// deterministic call at a time; engine_test.go keeps what only the
// wall-clock driver can get wrong (timers, goroutines, blocking joins).

func names(g *Group[string, struct{}]) string {
	if g == nil {
		return ""
	}
	return strings.Join(g.Members, ",")
}

func TestFormerAdd(t *testing.T) {
	const unlimited = math.MaxInt64
	k1 := Key{Cut: 1, Seq: 8, Kind: sched.KindForward}
	k2 := Key{Cut: 2, Seq: 8, Kind: sched.KindForward}
	k1b := Key{Cut: 1, Seq: 8, Kind: sched.KindBackward}
	k1sig := Key{Cut: 1, Seq: 8, Kind: sched.KindForward, Sig: "q,v"}

	type step struct {
		key    Key
		member string
		bytes  int64
		budget int64

		joined string // members of the group the call returned, after it
		opened bool
		sealed string // members of the group the call sealed, "" for none
	}
	cases := []struct {
		name    string
		maxSize int
		steps   []step
	}{
		{"size trigger seals the joined group and the next member starts over", 3, []step{
			{k1, "a", 10, unlimited, "a", true, ""},
			{k1, "b", 10, unlimited, "a,b", false, ""},
			{k1, "c", 10, unlimited, "a,b,c", false, "a,b,c"},
			{k1, "d", 10, unlimited, "d", true, ""},
		}},
		{"size one seals every member alone", 1, []step{
			{k1, "a", 10, 5, "a", true, "a"},
			{k1, "b", 10, 5, "b", true, "b"},
		}},
		{"byte budget seals the forming group early", 8, []step{
			{k1, "a", 60, 100, "a", true, ""},
			{k1, "b", 60, 100, "b", true, "a"},
			{k1, "c", 40, 100, "b,c", false, ""}, // exactly at the budget still fits
			{k1, "d", 1, 100, "d", true, "b,c"},
		}},
		{"a member over the budget on its own ends up alone", 8, []step{
			{k1, "huge", 150, 100, "huge", true, ""},
			{k1, "b", 10, 100, "b", true, "huge"},
			{k1, "c", 10, 100, "b,c", false, ""},
		}},
		{"the budget is read per call", 8, []step{
			{k1, "a", 60, 100, "a", true, ""},
			{k1, "b", 60, 200, "a,b", false, ""},
			{k1, "c", 10, 100, "c", true, "a,b"},
		}},
		{"keys never mix", 2, []step{
			{k1, "a", 10, unlimited, "a", true, ""},
			{k2, "b", 10, unlimited, "b", true, ""},
			{k1b, "c", 10, unlimited, "c", true, ""},
			{k1sig, "d", 10, unlimited, "d", true, ""},
			{k2, "e", 10, unlimited, "b,e", false, "b,e"},
			{k1, "f", 10, unlimited, "a,f", false, "a,f"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFormer[string, struct{}](tc.maxSize)
			for i, s := range tc.steps {
				g, opened, sealed := f.Add(s.key, s.member, s.bytes, s.budget)
				if names(g) != s.joined || opened != s.opened || names(sealed) != s.sealed {
					t.Fatalf("step %d (add %s): joined [%s] opened %v sealed [%s], want [%s] %v [%s]",
						i, s.member, names(g), opened, names(sealed), s.joined, s.opened, s.sealed)
				}
				if g.Key != s.key {
					t.Fatalf("step %d: joined a group under %+v, want %+v", i, g.Key, s.key)
				}
			}
		})
	}
}

// TestFormerSealIsIdempotent: whichever of the size trigger, the byte
// budget, hold expiry and drain closes a group first wins, and every
// later attempt reports that it did nothing — the property that lets a
// driver's hold timer fire late without double-dispatching.
func TestFormerSealIsIdempotent(t *testing.T) {
	key := Key{Cut: 1, Seq: 8, Kind: sched.KindBackward}
	f := NewFormer[string, struct{}](2)

	full, _, _ := f.Add(key, "a", 1, 100)
	if _, _, sealed := f.Add(key, "b", 1, 100); sealed != full {
		t.Fatal("second member did not seal the group of two")
	}
	if f.Seal(full) {
		t.Error("hold expiry after a size seal sealed again")
	}

	over, _, _ := f.Add(key, "c", 90, 100)
	partial, _, sealed := f.Add(key, "d", 90, 100)
	if sealed != over {
		t.Fatal("over-budget member did not seal the forming group")
	}
	if f.Seal(over) {
		t.Error("hold expiry after a byte-budget seal sealed again")
	}

	// d's group is still forming: expiry closes it, exactly once, and
	// the next member under the key starts a fresh group.
	if !f.Seal(partial) {
		t.Error("hold expiry on a forming group did not seal it")
	}
	if f.Seal(partial) {
		t.Error("second expiry sealed again")
	}
	if g, opened, _ := f.Add(key, "e", 1, 100); g == partial || !opened {
		t.Error("a member joined a sealed group")
	}
	if names(partial) != "d" || partial.Bytes != 90 {
		t.Errorf("sealed group changed after sealing: [%s], %d bytes", names(partial), partial.Bytes)
	}
}

// TestFormerDrain: drain returns every forming group exactly once,
// sealed, and nothing that sealed before it.
func TestFormerDrain(t *testing.T) {
	f := NewFormer[string, struct{}](2)
	keys := []Key{{Cut: 1}, {Cut: 2}, {Cut: 3}}
	f.Add(keys[0], "a", 1, 100)
	f.Add(keys[0], "b", 1, 100) // sealed by size: not forming any more
	f.Add(keys[1], "c", 1, 100)
	f.Add(keys[2], "d", 1, 100)
	f.Add(keys[0], "e", 1, 100)

	drained := f.Drain()
	var got []string
	for _, g := range drained {
		got = append(got, names(g))
		if f.Seal(g) {
			t.Errorf("group [%s] came out of Drain unsealed", names(g))
		}
	}
	sort.Strings(got)
	if want := []string{"c", "d", "e"}; !slices.Equal(got, want) {
		t.Errorf("drained %v, want %v", got, want)
	}
	if again := f.Drain(); len(again) != 0 {
		t.Errorf("second drain returned %d groups", len(again))
	}
	if g, opened, _ := f.Add(keys[1], "f", 1, 100); !opened || names(g) != "f" {
		t.Errorf("after drain, a member joined [%s] (opened %v), want a fresh group", names(g), opened)
	}
}

// TestFormerAddAllocs: a group of eight costs one allocation, made when
// it opens and sized for maxSize then; the seven joins cost none.
func TestFormerAddAllocs(t *testing.T) {
	const maxSize = 8
	f := NewFormer[*int, struct{}](maxSize)
	key := Key{Cut: 1, Seq: 8, Kind: sched.KindForward}
	member := new(int)
	got := testing.AllocsPerRun(1000, func() {
		for i := 0; i < maxSize; i++ {
			_, opened, sealed := f.Add(key, member, 1, math.MaxInt64)
			if opened != (i == 0) || (sealed != nil) != (i == maxSize-1) {
				t.Fatalf("member %d: opened %v, sealed %v", i, opened, sealed != nil)
			}
		}
	})
	if got != 1 {
		t.Errorf("a group of %d allocates %v objects, want 1", maxSize, got)
	}
}
