package tensor

import (
	"math"
	"testing"
)

func TestScratchReusesAndZeroesBuffers(t *testing.T) {
	sc := NewScratch()
	a := sc.Get(4, 6)
	a.Fill(3)
	sc.Put(a)

	b := sc.Get(4, 6)
	if &b.Data()[0] != &a.Data()[0] {
		t.Fatal("Get did not reuse the retained buffer")
	}
	for i, v := range b.Data() {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %g", i, v)
		}
	}
	gets, hits := sc.Stats()
	if gets != 2 || hits != 1 {
		t.Fatalf("stats = (%d gets, %d hits), want (2, 1)", gets, hits)
	}
}

func TestScratchReshapesAcrossShapesOfSameSize(t *testing.T) {
	sc := NewScratch()
	a := sc.Get(4, 6)
	sc.Put(a)
	b := sc.Get(2, 12)
	if &b.Data()[0] != &a.Data()[0] {
		t.Fatal("same element count should reuse the buffer across shapes")
	}
	if b.Dim(0) != 2 || b.Dim(1) != 12 {
		t.Fatalf("recycled tensor has shape %v, want [2 12]", b.Shape())
	}
}

func TestScratchDistinctSizeClasses(t *testing.T) {
	sc := NewScratch()
	a := sc.Get(4, 6)
	sc.Put(a)
	b := sc.Get(5, 5)
	if &b.Data()[0] == &a.Data()[0] {
		t.Fatal("different element counts must not share a buffer")
	}
}

func TestScratchDuplicatePutIgnored(t *testing.T) {
	sc := NewScratch()
	a := sc.Get(3, 3)
	sc.Put(a)
	sc.Put(a) // defensive double-put must not corrupt the free list
	x := sc.Get(3, 3)
	y := sc.Get(3, 3)
	if &x.Data()[0] == &y.Data()[0] {
		t.Fatal("duplicate Put handed the same buffer to two owners")
	}
}

func TestScratchNilSafety(t *testing.T) {
	var sc *Scratch
	a := sc.Get(2, 2)
	if a == nil || a.Len() != 4 {
		t.Fatal("nil scratch must degrade to allocation")
	}
	sc.Put(a) // must not panic
	if gets, hits := sc.Stats(); gets != 0 || hits != 0 {
		t.Fatal("nil scratch must report zero stats")
	}
	if sc.RetainedBytes() != 0 {
		t.Fatal("nil scratch retains nothing")
	}
}

func TestScratchPutSkipsNilAndEmpty(t *testing.T) {
	sc := NewScratch()
	sc.Put(nil, New(0)) // must not panic or retain
	if sc.RetainedBytes() != 0 {
		t.Fatalf("retained %d bytes after putting nil/empty", sc.RetainedBytes())
	}
}

func TestScratchClassCap(t *testing.T) {
	sc := NewScratch()
	ts := make([]*Tensor, scratchMaxPerClass+10)
	for i := range ts {
		ts[i] = New(8)
	}
	sc.Put(ts...)
	want := int64(scratchMaxPerClass) * 8 * 4
	if got := sc.RetainedBytes(); got != want {
		t.Fatalf("retained %d bytes, want cap %d", got, want)
	}
}

func TestScratchRetainedBytesTracksGetPut(t *testing.T) {
	sc := NewScratch()
	a := sc.Get(10, 10)
	if sc.RetainedBytes() != 0 {
		t.Fatal("outstanding buffers are not retained")
	}
	sc.Put(a)
	if got := sc.RetainedBytes(); got != 400 {
		t.Fatalf("retained %d bytes after put, want 400", got)
	}
	sc.Get(10, 10)
	if got := sc.RetainedBytes(); got != 0 {
		t.Fatalf("retained %d bytes after get, want 0", got)
	}
}

// TestScratchGetUninitIsPoisonedInTests shows the guard on GetUninit is
// live in this test binary, and so in every package's: fresh and
// recycled tensors both come back filled with the NaN poison, never
// zero or an earlier owner's values, so a call site that reads before
// it writes turns the bit pins to NaN. Get still zeroes a buffer that
// GetUninit handed out and got back.
func TestScratchGetUninitIsPoisonedInTests(t *testing.T) {
	if !poisonUninit {
		t.Fatal("GetUninit does not poison in a test binary")
	}
	poisoned := func(name string, x *Tensor) {
		t.Helper()
		for i, v := range x.Data() {
			if math.Float32bits(v) != math.Float32bits(uninitPoison) {
				t.Fatalf("%s: element %d is %g, want the poison NaN", name, i, v)
			}
		}
	}
	var nilArena *Scratch
	poisoned("nil arena", nilArena.GetUninit(3, 5))
	sc := NewScratch()
	fresh := sc.GetUninit(3, 5)
	poisoned("fresh", fresh)
	fresh.Fill(2)
	sc.Put(fresh)
	recycled := sc.GetUninit(5, 3)
	if &recycled.Data()[0] != &fresh.Data()[0] {
		t.Fatal("GetUninit did not reuse the retained buffer")
	}
	poisoned("recycled", recycled)
	sc.Put(recycled)
	for i, v := range sc.Get(15).Data() {
		if v != 0 {
			t.Fatalf("Get after GetUninit: element %d is %g, want 0", i, v)
		}
	}
}
