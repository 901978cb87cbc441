package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New()
	var woke time.Duration
	k.After(0, func() {
		k.After(5*time.Second, func() { woke = k.Now() })
	})
	start := time.Now()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("virtual sleep took %v of wall time", wall)
	}
}

func TestEventOrderingIsFIFOAtEqualTimes(t *testing.T) {
	k := New()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.After(0, func() {
			k.After(time.Second, func() { order = append(order, name) })
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		k := New()
		var times []time.Duration
		sig := k.NewSignal()
		var produce func(i int)
		produce = func(i int) {
			if i == 5 {
				return
			}
			k.After(time.Duration(i+1)*100*time.Millisecond, func() {
				sig.Fire()
				produce(i + 1)
			})
		}
		var consume func()
		consume = func() {
			sig.Wait("tick", func() {
				times = append(times, k.Now())
				if len(times) < 5 {
					consume()
				}
			})
		}
		k.After(0, func() { produce(0) })
		k.After(0, consume)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("got %d ticks", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSignalFIFO(t *testing.T) {
	k := New()
	var order []string
	sig := k.NewSignal()
	for _, name := range []string{"w1", "w2"} {
		name := name
		k.After(0, func() {
			sig.Wait("test", func() { order = append(order, name) })
		})
	}
	k.After(0, func() {
		k.After(time.Second, func() {
			if !sig.Fire() {
				t.Error("no waiter")
			}
			k.After(time.Second, func() { sig.Fire() })
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "w1" || order[1] != "w2" {
		t.Fatalf("order = %v", order)
	}
}

// Fire never runs a continuation inline: it is an event at the current
// time, behind every event already due then.
func TestFireSchedulesNotRuns(t *testing.T) {
	k := New()
	var order []string
	sig := k.NewSignal()
	k.After(0, func() {
		sig.Wait("w", func() { order = append(order, "woken") })
	})
	k.After(0, func() {
		k.After(0, func() { order = append(order, "queued") })
		sig.Fire()
		order = append(order, "firer")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, " ") != "firer queued woken" {
		t.Fatalf("order = %v", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	sig := k.NewSignal()
	k.After(0, func() {
		sig.Wait("never fired", func() {})
	})
	k.After(0, func() {
		k.NewSignal().Wait("also stuck", func() {})
	})
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	for _, reason := range []string{"never fired", "also stuck", "2 blocked"} {
		if !strings.Contains(err.Error(), reason) {
			t.Fatalf("deadlock report %q does not name %q", err, reason)
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks < 100 {
			k.After(time.Second, tick)
		}
	}
	k.After(0, func() { k.After(time.Second, tick) })
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if k.Now() != 10*time.Second {
		t.Fatalf("Now = %v", k.Now())
	}
	// Continue to completion.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
}

func TestAfterCallback(t *testing.T) {
	k := New()
	var at time.Duration
	k.After(3*time.Second, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Second {
		t.Fatalf("callback at %v", at)
	}
}

func TestAfterFromHandler(t *testing.T) {
	k := New()
	var childRan bool
	k.After(0, func() {
		k.After(time.Second, func() {
			k.After(0, func() {
				k.After(time.Second, func() { childRan = true })
			})
			k.After(5*time.Second, func() {})
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
	if k.Now() != 6*time.Second {
		t.Fatalf("end time = %v, want 6s", k.Now())
	}
}

// A zero delay yields: the continuation is rescheduled at the current
// time, behind every handler already ready then.
func TestYield(t *testing.T) {
	k := New()
	var order []string
	k.After(0, func() {
		order = append(order, "a1")
		k.After(0, func() { order = append(order, "a2") })
	})
	k.After(0, func() {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNegativeDurationsClamped(t *testing.T) {
	k := New()
	k.After(0, func() {
		k.After(-time.Second, func() {
			if k.Now() != 0 {
				t.Errorf("negative sleep advanced time to %v", k.Now())
			}
		})
	})
	k.After(-time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// The heap pops (time, sequence) order for any push order, including
// events pushed while others at the same time are being dispatched.
func TestHeapOrder(t *testing.T) {
	k := New()
	var got []time.Duration
	for i := 0; i < 200; i++ {
		d := time.Duration((i*7919)%97) * time.Millisecond
		k.After(d, func() {
			got = append(got, k.Now())
			if len(got)%3 == 0 {
				k.After(0, func() { got = append(got, k.Now()) })
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backwards at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	if len(k.queue) != 0 || cap(k.queue) == 0 {
		t.Fatalf("queue len %d cap %d", len(k.queue), cap(k.queue))
	}
}

// Dispatching an event allocates nothing once the heap has grown.
func TestEventPathAllocatesNothing(t *testing.T) {
	k := New()
	sig := k.NewSignal()
	var step func()
	n := 0
	step = func() {
		switch n++; {
		case n >= 64:
		case n%2 == 0:
			sig.Wait("w", step)
			sig.Fire()
		default:
			k.After(time.Millisecond, step)
		}
	}
	run := func() {
		n = 0
		for i := 0; i < 8; i++ {
			k.After(0, step) // eight interleaved chains grow the heap
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("%.1f allocations per run of 64 events", allocs)
	}
}
