package sim

import (
	"errors"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New()
	var woke time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
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
		k.Spawn(name, func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, name)
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
		k.Spawn("producer", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Duration(i+1) * 100 * time.Millisecond)
				sig.Fire()
			}
		})
		k.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 5; i++ {
				sig.Wait(p, "tick")
				times = append(times, p.Now())
			}
		})
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
		k.Spawn(name, func(p *Proc) {
			sig.Wait(p, "test")
			order = append(order, name)
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Second)
		if !sig.Fire() {
			t.Error("no waiter")
		}
		p.Sleep(time.Second)
		sig.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "w1" || order[1] != "w2" {
		t.Fatalf("order = %v", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	sig := k.NewSignal()
	k.Spawn("stuck", func(p *Proc) {
		sig.Wait(p, "never fired")
	})
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
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

func TestSpawnFromProcess(t *testing.T) {
	k := New()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
		p.Sleep(5 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

// A zero sleep yields: the process is rescheduled at the current time,
// behind every process already ready then.
func TestYield(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
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
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced time to %v", p.Now())
		}
	})
	k.After(-time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcName(t *testing.T) {
	k := New()
	k.Spawn("named", func(p *Proc) {
		if p.Name() != "named" || p.Kernel() != k {
			t.Error("proc identity wrong")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
