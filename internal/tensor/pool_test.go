package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelForCoversRangeExactlyOnce states the work per item so
// chunks hold at least 1, 3, 64 and 10010 items.
func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	for _, par := range []int{1, 2, 3, 8} {
		SetParallelism(par)
		for _, n := range []int{1, 2, 7, 64, 1000} {
			for _, work := range []int{fanOutWork, fanOutWork / 3, fanOutWork / 64, fanOutWork / 10000} {
				hits := make([]int32, n)
				before := handOffs.Load()
				ParallelFor(n, work, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("par=%d n=%d work=%d: bad chunk [%d,%d)", par, n, work, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("par=%d n=%d work=%d: index %d visited %d times", par, n, work, i, h)
					}
				}
				if split := par > 1 && n > grainFor(work); split != (handOffs.Load() > before) {
					t.Fatalf("par=%d n=%d work=%d: split %v, but %d hand-offs", par, n, work, split, handOffs.Load()-before)
				}
			}
		}
	}
}

func TestParallelForZeroIterations(t *testing.T) {
	called := false
	ParallelFor(0, 1, func(lo, hi int) { called = true })
	ParallelFor(-3, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("ParallelFor ran fn for an empty range")
	}
}

// TestParallelForNested pins the no-deadlock guarantee: a parallel
// region whose bodies invoke further parallel regions must complete.
// Waiting callers drain the shared queue instead of parking, so
// workers blocked in inner waits cannot strand the chunks queued
// behind theirs (parking here deadlocks when every consumer holds an
// outer chunk, which a 1-CPU -race run reliably produces).
func TestParallelForNested(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(4)
	var total int64
	before := handOffs.Load()
	ParallelFor(8, fanOutWork, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(100, fanOutWork/10, func(ilo, ihi int) {
				atomic.AddInt64(&total, int64(ihi-ilo))
			})
		}
	})
	if total != 800 {
		t.Fatalf("nested ParallelFor covered %d of 800 iterations", total)
	}
	if handOffs.Load() == before {
		t.Fatal("nested ParallelFor handed nothing to the pool")
	}
}

func TestSetParallelismResize(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)

	for _, n := range []int{4, 1, 2, 16} {
		SetParallelism(n)
		if got := Parallelism(); got != n {
			t.Fatalf("Parallelism() = %d after SetParallelism(%d)", got, n)
		}
		// The pool must keep functioning across resizes.
		var count int64
		before := handOffs.Load()
		ParallelFor(500, fanOutWork, func(lo, hi int) {
			atomic.AddInt64(&count, int64(hi-lo))
		})
		if count != 500 {
			t.Fatalf("after resize to %d: covered %d of 500", n, count)
		}
		if n > 1 && handOffs.Load() == before {
			t.Fatalf("after resize to %d: nothing handed to the pool", n)
		}
	}

	SetParallelism(0) // reset to GOMAXPROCS
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("SetParallelism(0) → %d, want GOMAXPROCS %d", got, want)
	}
}

// TestSetParallelismDuringParallelFor resizes the pool while kernels
// are in flight; every in-flight chunk must still complete exactly
// once.
func TestSetParallelismDuringParallelFor(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(4)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{1, 2, 4, 8}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetParallelism(sizes[i%len(sizes)])
			}
		}
	}()
	before := handOffs.Load()
	for iter := 0; iter < 50; iter++ {
		var count int64
		ParallelFor(200, fanOutWork, func(lo, hi int) {
			atomic.AddInt64(&count, int64(hi-lo))
		})
		if count != 200 {
			t.Fatalf("iteration %d: covered %d of 200", iter, count)
		}
	}
	close(stop)
	wg.Wait()
	if handOffs.Load() == before {
		t.Fatal("no iteration handed anything to the pool")
	}
}
