package gpu

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"menos/internal/obs"
)

func TestSpecPresets(t *testing.T) {
	if V100().MemoryBytes != 32<<30 || A100().MemoryBytes != 40<<30 || RTXA4500().MemoryBytes != 20<<30 {
		t.Fatal("preset capacities wrong")
	}
}

func TestAllocFree(t *testing.T) {
	d := NewDevice(Spec{Name: "t", MemoryBytes: 100})
	id, err := d.Alloc("a", 60)
	if err != nil {
		t.Fatal(err)
	}
	if d.Used() != 60 || d.Available() != 40 {
		t.Fatalf("used %d available %d", d.Used(), d.Available())
	}
	if _, err := d.Alloc("b", 50); !errors.Is(err, ErrOOM) {
		t.Fatalf("overcommit err = %v", err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 0 {
		t.Fatal("free did not reclaim")
	}
	if err := d.Free(id); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free err = %v", err)
	}
	if d.Peak() != 60 {
		t.Fatalf("peak %d, want 60", d.Peak())
	}
}

func TestNegativeAllocRejected(t *testing.T) {
	d := NewDevice(Spec{Name: "t", MemoryBytes: 100})
	if _, err := d.Alloc("a", -1); err == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestZeroByteAllocAllowed(t *testing.T) {
	d := NewDevice(Spec{Name: "t", MemoryBytes: 10})
	id, err := d.Alloc("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
}

// TestFreeOwner: FreeOwner returns every byte an owner holds, and the
// per-owner gauge (menos_gpu_owner_bytes{owner}) follows.
func TestFreeOwner(t *testing.T) {
	d := NewDevice(Spec{Name: "t", MemoryBytes: 100})
	reg := obs.NewRegistry()
	d.Instrument(reg)
	owner := reg.GaugeVec(obs.MetricGPUOwnerBytes, "owner")
	mustAlloc(t, d, "a", 10)
	mustAlloc(t, d, "a", 20)
	mustAlloc(t, d, "b", 30)
	if got := owner.With("a").Value(); got != 30 {
		t.Fatalf("owner a usage %d", got)
	}
	if reclaimed := d.FreeOwner("a"); reclaimed != 30 {
		t.Fatalf("reclaimed %d", reclaimed)
	}
	if d.Used() != 30 || owner.With("a").Value() != 0 {
		t.Fatal("owner frees incomplete")
	}
	if got := owner.With("b").Value(); got != 30 {
		t.Fatalf("owner b usage %d after freeing a", got)
	}
	if reclaimed := d.FreeOwner("missing"); reclaimed != 0 {
		t.Fatal("freeing unknown owner reclaimed bytes")
	}
}

// TestStatsCount: an instrumented device counts its successful
// allocations, not its refusals or frees, and counts each refusal as
// an OOM.
func TestStatsCount(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDevice(Spec{Name: "t", MemoryBytes: 100})
	d.Instrument(reg)
	id := mustAlloc(t, d, "a", 10)
	mustAlloc(t, d, "a", 10)
	if _, err := d.Alloc("a", 200); !errors.Is(err, ErrOOM) {
		t.Fatalf("oversized alloc: %v", err)
	}
	if _, err := d.Alloc("b", 90); !errors.Is(err, ErrOOM) {
		t.Fatalf("alloc past the free bytes: %v", err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricGPUAllocOps).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", obs.MetricGPUAllocOps, got)
	}
	if got := reg.Counter(obs.MetricGPUOOM).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", obs.MetricGPUOOM, got)
	}
}

func mustAlloc(t *testing.T, d *Device, owner string, bytes int64) AllocID {
	t.Helper()
	id, err := d.Alloc(owner, bytes)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// Property: used always equals the sum of live allocations and never
// exceeds capacity, under arbitrary interleavings of alloc and free.
func TestAllocatorInvariantProperty(t *testing.T) {
	f := func(ops []uint16, capSeed uint8) bool {
		capacity := int64(capSeed)*10 + 50
		d := NewDevice(Spec{Name: "p", MemoryBytes: capacity})
		type live struct {
			id    AllocID
			bytes int64
		}
		var lives []live
		var wantUsed int64
		for _, op := range ops {
			if op%3 == 0 && len(lives) > 0 {
				// Free a pseudo-random live allocation.
				i := int(op/3) % len(lives)
				if err := d.Free(lives[i].id); err != nil {
					return false
				}
				wantUsed -= lives[i].bytes
				lives = append(lives[:i], lives[i+1:]...)
			} else {
				bytes := int64(op % 40)
				id, err := d.Alloc("p", bytes)
				if err != nil {
					if !errors.Is(err, ErrOOM) {
						return false
					}
					if wantUsed+bytes <= capacity {
						return false // spurious OOM
					}
					continue
				}
				wantUsed += bytes
				lives = append(lives, live{id: id, bytes: bytes})
			}
			if d.Used() != wantUsed || d.Used() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	d := NewDevice(Spec{Name: "t", MemoryBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(owner byte) {
			defer wg.Done()
			name := string(owner)
			for i := 0; i < 200; i++ {
				id, err := d.Alloc(name, 64)
				if err != nil {
					continue
				}
				if err := d.Free(id); err != nil {
					t.Error(err)
					return
				}
			}
		}('a' + byte(g))
	}
	wg.Wait()
	if d.Used() != 0 {
		t.Fatalf("leaked %d bytes", d.Used())
	}
}

func TestDeviceSetBalancing(t *testing.T) {
	s, err := NewDeviceSet(Spec{Name: "t", MemoryBytes: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() != 200 {
		t.Fatalf("capacity %d", s.Capacity())
	}
	// Worst-fit: allocations alternate between devices.
	if _, err := s.Alloc("a", 40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc("a", 40); err != nil {
		t.Fatal(err)
	}
	d0, d1 := s.devices[0].Used(), s.devices[1].Used()
	if d0 != 40 || d1 != 40 {
		t.Fatalf("unbalanced: %d, %d", d0, d1)
	}
	// A request larger than any single device's free space fails even
	// though aggregate space exists.
	if _, err := s.Alloc("a", 90); !errors.Is(err, ErrOOM) {
		t.Fatalf("oversized single-device alloc err = %v", err)
	}
}

func TestDeviceSetSharded(t *testing.T) {
	s, err := NewDeviceSet(Spec{Name: "t", MemoryBytes: 100}, 4)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.AllocSharded("model", 301)
	if err != nil {
		t.Fatal(err)
	}
	if s.Used() != 301 {
		t.Fatalf("used %d", s.Used())
	}
	// Shards are spread: every device holds something.
	for i, d := range s.devices {
		if d.Used() == 0 {
			t.Fatalf("device %d holds nothing", i)
		}
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 0 {
		t.Fatal("sharded free incomplete")
	}
}

func TestDeviceSetShardedAtomicFailure(t *testing.T) {
	s, err := NewDeviceSet(Spec{Name: "t", MemoryBytes: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fill one device so the even split cannot fit.
	if _, err := s.devices[0].Alloc("x", 90); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocSharded("model", 180); !errors.Is(err, ErrOOM) {
		t.Fatalf("sharded overcommit err = %v", err)
	}
	// Failure must not leak partial shards.
	if s.devices[1].Used() != 0 {
		t.Fatalf("partial shard leaked: %d", s.devices[1].Used())
	}
}

func TestDeviceSetFreeOwner(t *testing.T) {
	s, err := NewDeviceSet(Spec{Name: "t", MemoryBytes: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocSharded("m", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc("m", 30); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeOwner("m"); got != 130 {
		t.Fatalf("reclaimed %d", got)
	}
	if s.Used() != 0 {
		t.Fatal("free owner incomplete")
	}
}

func TestDeviceSetValidation(t *testing.T) {
	if _, err := NewDeviceSet(V100(), 0); err == nil {
		t.Fatal("empty device set accepted")
	}
	s, err := NewDeviceSet(V100(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(AllocID(99)); !errors.Is(err, ErrBadFree) {
		t.Fatalf("bad set free err = %v", err)
	}
}
