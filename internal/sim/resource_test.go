package sim

import (
	"testing"
	"time"
)

func TestResourceSerializes(t *testing.T) {
	k := New()
	r := k.NewResource("gpu", 1)
	var active, maxActive int
	for i := 0; i < 4; i++ {
		k.Spawn("worker", func(p *Proc) {
			r.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(time.Second)
			active--
			r.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxActive != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxActive)
	}
	// 4 workers × 1 s serialized.
	if k.Now() != 4*time.Second {
		t.Fatalf("end time = %v, want 4s", k.Now())
	}
}

func TestResourceCapacity(t *testing.T) {
	k := New()
	r := k.NewResource("gpus", 2)
	if r.Capacity() != 2 {
		t.Fatalf("capacity = %d", r.Capacity())
	}
	for i := 0; i < 4; i++ {
		k.Spawn("worker", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(time.Second)
			r.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 workers over 2 units: 2 s total.
	if k.Now() != 2*time.Second {
		t.Fatalf("end time = %v, want 2s", k.Now())
	}
	if r.inUse != 0 {
		t.Fatalf("units leaked: %d", r.inUse)
	}
}

func TestResourceFIFO(t *testing.T) {
	k := New()
	r := k.NewResource("r", 1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(time.Second)
			r.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	k := New()
	r := k.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceMinimumCapacity(t *testing.T) {
	k := New()
	if r := k.NewResource("r", 0); r.Capacity() != 1 {
		t.Fatalf("zero capacity not clamped: %d", r.Capacity())
	}
}
