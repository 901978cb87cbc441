package sim

import (
	"errors"
	"math/rand"
	"sort"
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

// The queue pops (time, sequence) order for any push order, including
// events pushed while others at the same time are being dispatched, and
// dispatches every pushed event exactly once.
func TestHeapOrder(t *testing.T) {
	k := New()
	var got []time.Duration
	pushed := 0
	for i := 0; i < 200; i++ {
		d := time.Duration((i*7919)%97) * time.Millisecond
		pushed++
		k.After(d, func() {
			got = append(got, k.Now())
			if len(got)%3 == 0 {
				pushed++
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
	if len(got) != pushed {
		t.Fatalf("dispatched %d of %d pushed events", len(got), pushed)
	}
}

// A seeded program — After with delays from a small set, so many times
// tie; After(0) and Signal.Fire from inside handlers; pushes and fires
// between RunUntil calls — dispatches in exactly the order of a
// reference sort of its pushes by (time, push counter), each at its own
// time.
func TestDispatchOrderIsTimeThenPush(t *testing.T) {
	delays := []time.Duration{0, 0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		sig := k.NewSignal()
		var at []time.Duration // at[n] is push n's due time
		var got []int          // push counters in dispatch order
		var woken []*int       // each parked wait's push counter, FIFO like sig
		var handler func(n int) func()
		push := func() int {
			at = append(at, k.Now())
			return len(at) - 1
		}
		after := func() {
			d := delays[rng.Intn(len(delays))]
			n := push()
			at[n] += d
			k.After(d, handler(n))
		}
		fire := func() {
			if sig.Fire() {
				*woken[0] = push()
				woken = woken[1:]
			}
		}
		handler = func(n int) func() {
			return func() {
				if k.Now() != at[n] {
					t.Fatalf("seed %d: push %d due %v ran at %v", seed, n, at[n], k.Now())
				}
				got = append(got, n)
				if len(at) > 3000 {
					return
				}
				for i := rng.Intn(3); i >= 0; i-- {
					switch rng.Intn(4) {
					case 0, 1:
						after()
					case 2:
						w := new(int)
						woken = append(woken, w)
						sig.Wait("model", func() { handler(*w)() })
					case 3:
						fire()
					}
				}
			}
		}
		for i := 0; i < 8; i++ {
			after()
		}
		for limit := time.Duration(0); limit < 40*time.Millisecond; limit += time.Duration(rng.Intn(4)) * time.Millisecond {
			if err := k.RunUntil(limit); err != nil && !errors.Is(err, ErrDeadlock) {
				t.Fatal(err)
			}
			after()
			fire()
		}
		for {
			err := k.Run()
			if err == nil {
				break
			}
			if !errors.Is(err, ErrDeadlock) {
				t.Fatal(err)
			}
			fire()
		}
		want := make([]int, len(at))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
		if len(got) != len(want) {
			t.Fatalf("seed %d: dispatched %d of %d pushes", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d is push %d (due %v), want push %d (due %v)",
					seed, i, got[i], at[got[i]], want[i], at[want[i]])
			}
		}
	}
}

// RunUntil with a limit behind the clock leaves the clock where it is:
// time never moves backwards, so a later After cannot land before an
// event that already ran.
func TestRunUntilNeverMovesTimeBack(t *testing.T) {
	k := New()
	var ran []time.Duration
	k.After(10*time.Second, func() { ran = append(ran, k.Now()) })
	k.After(20*time.Second, func() { ran = append(ran, k.Now()) })
	if err := k.RunUntil(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 15*time.Second {
		t.Fatalf("Now = %v after RunUntil(5s) at 15s, want 15s", k.Now())
	}
	k.After(time.Second, func() { ran = append(ran, k.Now()) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Second, 16 * time.Second, 20 * time.Second}
	if len(ran) != len(want) {
		t.Fatalf("ran at %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran at %v, want %v", ran, want)
		}
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

// BenchmarkDispatch runs 2048 chains of 16 hops each. In lockstep every
// hop waits the same delay, so the chains share each due time, as
// sim_fleet's homogeneous clients do; in distinct every hop draws a
// fresh pseudo-random delay, so no two events share a time.
//
//	go test -run '^$' -bench Dispatch ./internal/sim
func BenchmarkDispatch(b *testing.B) {
	const chains, hops = 2048, 16
	for _, bc := range []struct {
		name  string
		delay func(x *uint64) time.Duration
	}{
		{"lockstep", func(*uint64) time.Duration { return time.Millisecond }},
		{"distinct", func(x *uint64) time.Duration {
			*x ^= *x << 13
			*x ^= *x >> 7
			*x ^= *x << 17
			return time.Duration(*x % uint64(time.Second))
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k := New()
			x := uint64(1)
			left := make([]int, chains)
			hop := make([]func(), chains)
			for c := range hop {
				hop[c] = func() {
					if left[c]--; left[c] > 0 {
						k.After(bc.delay(&x), hop[c])
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := range hop {
					left[c] = hops
					k.After(bc.delay(&x), hop[c])
				}
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chains*hops), "ns/event")
		})
	}
}

// A signal that always has a waiter parked, and a resource that always
// has a continuation queued, never drain; their queues must stay the
// size of what waits, not grow by every wait they ever held.
func TestQueuesThatNeverDrainStayBounded(t *testing.T) {
	k := New()
	sig := k.NewSignal()
	gpu := k.NewResource("gpu", 1)
	noop := func() {}
	sig.Wait("first", noop)
	gpu.Acquire(noop) // takes the unit
	gpu.Acquire(noop) // queues
	for i := 0; i < 10_000; i++ {
		sig.Wait("next", noop)
		sig.Fire()
		gpu.Acquire(noop)
		gpu.Release()
		// The queue drains with the two still parked: a deadlock, here
		// on purpose.
		if err := k.RunUntil(k.Now()); !errors.Is(err, ErrDeadlock) {
			t.Fatal(err)
		}
	}
	if n := cap(sig.waiters); n > 8 {
		t.Errorf("signal with one or two waiters at a time holds room for %d", n)
	}
	if n := cap(gpu.parked); n > 8 {
		t.Errorf("resource with one or two queued continuations holds room for %d", n)
	}
}
