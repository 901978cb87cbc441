package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the package-level worker pool that every
// parallel kernel in the compute plane shares. Before the pool,
// matmulAccumParallel spawned GOMAXPROCS throwaway goroutines per
// call — tens of thousands per training step — and the backward-pass
// kernels had no parallel path at all.
//
// Design constraints, in priority order:
//
//  1. Bit-identical results at any parallelism. Work is always
//     partitioned by output row (or output element range), never by
//     reduction index, so every float is accumulated in the same
//     order whether one worker or sixteen run the kernel. The
//     determinism pins in internal/model depend on this.
//  2. No deadlocks under nesting. Attention parallelizes over
//     (batch, head) and each head body calls parallel matmuls.
//     ParallelFor never blocks on submission — if the task queue is
//     full, the caller runs the chunk inline — and a caller waiting
//     for its chunks drains the shared queue instead of parking, so
//     workers blocked inside nested waits can never strand the queue.
//  3. No goroutine churn. Workers are persistent; a ParallelFor call
//     only touches a channel and a WaitGroup.
//  4. One fan-out rule. A kernel states the work of one item and the
//     pool alone decides how many items make a chunk worth handing off
//     (fanOutWork); no call site picks a grain of its own.

// fanOutWork is the one fan-out rule: the work, in multiply-adds or
// elements, below which a chunk stays on the caller. It is the matmul
// break-even measured in docs/PERFORMANCE.md ("Fan-out threshold"):
// ≈ 180 µs of tile work per chunk against a ≈ 115 µs hand-off.
const fanOutWork = 1 << 22

// handOffs counts the chunks actually sent to the pool, so tests can
// pin where the rule fans out and where it does not.
var handOffs atomic.Int64

// poolQueueDepth bounds the number of queued-but-unclaimed chunks.
// Beyond it, submissions fall back to inline execution, which
// naturally throttles nested fan-out instead of queueing it.
const poolQueueDepth = 256

var pool struct {
	mu     sync.Mutex
	target int           // configured parallelism, >= 1 once initialized
	tasks  chan func()   // shared by all generations, never closed
	quit   chan struct{} // closing retires the current worker generation
}

// parTarget mirrors pool.target so the per-kernel Parallelism check is
// a single atomic load instead of a mutex acquisition. 0 means the
// pool has not been initialized yet.
var parTarget atomic.Int32

// ensurePoolLocked lazily initializes the pool at GOMAXPROCS workers.
// Callers must hold pool.mu.
func ensurePoolLocked() {
	if pool.tasks != nil {
		return
	}
	pool.tasks = make(chan func(), poolQueueDepth)
	// One permanent worker drains tasks regardless of the configured
	// parallelism. It is insurance against a chunk that was queued at
	// the instant SetParallelism retired a generation: retired workers
	// stop pulling, but nothing queued is ever orphaned.
	go func() {
		for f := range pool.tasks {
			f()
		}
	}()
	setParallelismLocked(runtime.GOMAXPROCS(0))
}

// setParallelismLocked retires the current worker generation and
// starts one sized for n. Callers must hold pool.mu.
func setParallelismLocked(n int) {
	if n < 1 {
		n = 1
	}
	if pool.quit != nil {
		close(pool.quit)
	}
	pool.target = n
	parTarget.Store(int32(n))
	pool.quit = make(chan struct{})
	// The caller of ParallelFor always executes one chunk itself and
	// one permanent worker always runs, so a target of n needs n-2
	// additional workers.
	for i := 0; i < n-2; i++ {
		go poolWorker(pool.quit)
	}
}

func poolWorker(quit chan struct{}) {
	for {
		select {
		case f := <-pool.tasks:
			f()
		case <-quit:
			return
		}
	}
}

// SetParallelism fixes the number of workers the shared compute pool
// uses, including the calling goroutine. n <= 0 resets to
// runtime.GOMAXPROCS. Results of every kernel in this package are
// bit-identical at any setting; only throughput changes, so it is
// safe to call at any time, including between training steps.
func SetParallelism(n int) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	ensurePoolLocked()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n != pool.target {
		setParallelismLocked(n)
	}
}

// Parallelism reports the pool's configured worker count.
func Parallelism() int {
	if n := parTarget.Load(); n > 0 {
		return int(n)
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	ensurePoolLocked()
	return pool.target
}

// grainFor is how many items of the given work make one chunk of
// fanOutWork: the fewest a chunk may hold.
func grainFor(work int) int {
	if work <= 0 {
		return math.MaxInt
	}
	return max(fanOutWork/work, 1)
}

// serialFor reports whether n items of the given work each would run
// as a single chunk anyway. Hot call sites use it to skip ParallelFor
// entirely, which also skips the closure allocation the fan-out path
// requires.
func serialFor(n, work int) bool {
	return n <= grainFor(work) || Parallelism() <= 1
}

// ParallelFor runs fn over [0, n), where one item costs work
// multiply-adds (or elements, for a memory-bound kernel). Items are
// partitioned into contiguous chunks of at least fanOutWork each,
// which fan out over the shared pool. fn(lo, hi) must be safe to call
// concurrently for disjoint ranges. The call returns after every chunk
// has finished.
//
// The caller always executes the final chunk itself, and chunks that
// cannot be handed off without blocking run inline on the caller, so
// ParallelFor is safe to nest and degrades to a plain loop when the
// pool is saturated, parallelism is 1 or the work fits one chunk.
func ParallelFor(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	grain := grainFor(work)
	w := Parallelism()
	if w <= 1 || n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > w {
		chunks = w
	}
	size := (n + chunks - 1) / chunks
	// remaining counts outstanding chunks plus a sentinel held during
	// submission so a fast worker cannot close done before the loop has
	// submitted everything.
	var remaining atomic.Int32
	remaining.Store(1)
	done := make(chan struct{})
	finish := func() {
		if remaining.Add(-1) == 0 {
			close(done)
		}
	}
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi >= n {
			// Last chunk: run on the caller instead of waiting idle.
			fn(lo, n)
			break
		}
		lo, hi := lo, hi
		remaining.Add(1)
		task := func() {
			defer finish()
			fn(lo, hi)
		}
		select {
		case pool.tasks <- task:
			handOffs.Add(1)
		default:
			remaining.Add(-1) // sentinel still held, cannot reach 0
			fn(lo, hi)
		}
	}
	finish() // drop the sentinel
	// Wait by helping: drain the shared queue until our own chunks are
	// done. Parking here instead would deadlock nested fan-out — every
	// worker could be blocked in an inner wait exactly like this one,
	// with the chunks they are waiting on queued behind ours.
	for {
		select {
		case <-done:
			return
		case f := <-pool.tasks:
			f()
		}
	}
}
