package tensor

import (
	"math"
	"sync"
	"testing"
)

// scratchMaxPerClass caps how many free buffers a size class retains.
// Attention fans out at most pool-parallelism head workers, each with
// a handful of buffers, so a small cap bounds arena growth while still
// absorbing the steady-state working set of a training step.
const scratchMaxPerClass = 64

// Scratch is a buffer arena for step-scoped tensors. Get returns a
// zeroed tensor of the requested shape, drawing from a free list
// keyed by element count; Put returns tensors to the free list for
// reuse. Unlike sync.Pool, nothing is dropped nondeterministically
// and every Get observes identical (all-zero) contents whether the
// buffer is fresh or recycled, so swapping New for Get can never
// change a computed value. GetUninit skips the zeroing, for the call
// sites whose kernel writes every element before anything reads one.
//
// A nil *Scratch is valid and degrades to plain allocation, which
// keeps call sites unconditional.
//
// Ownership contract: a tensor obtained from Get has exactly one
// owner at a time. Put hands ownership back; using a tensor after
// putting it is a bug. Never put a tensor that a cache or caller
// still references. Put is idempotent within the retention window
// (duplicates are detected and dropped) so a defensive extra Put
// cannot corrupt the free list.
//
// A tensor remembers the arena that handed it out and goes back there
// whichever arena it is put into, so several arenas can trade tensors
// (one per session, say, and a shared one) and each one's Outstanding
// still counts only its own.
type Scratch struct {
	mu    sync.Mutex
	free  map[int][]*Tensor
	gets  uint64
	hits  uint64
	bytes int64 // bytes currently retained on free lists
	// out is the bytes Get handed out minus those Put took back, and
	// peak its high-water mark since the last ResetPeak.
	out, peak int64
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch {
	return &Scratch{free: make(map[int][]*Tensor)}
}

// uninitPoison is what GetUninit fills its tensors with in a test
// binary: a quiet NaN with a payload no kernel produces.
var uninitPoison = math.Float32frombits(0x7fc00bad)

// poisonUninit makes GetUninit fill every tensor it returns with
// uninitPoison in test binaries, fresh or recycled, so that a call site
// which reads an element before writing it gets NaNs instead of a stale
// or zero value and fails every bit pin at once; production binaries
// skip the fill.
var poisonUninit = testing.Testing()

// Get returns a zeroed tensor with the given shape, reusing a retained
// buffer of the same element count when one is available.
func (s *Scratch) Get(shape ...int) *Tensor {
	t, recycled := s.get(shape)
	if recycled {
		t.Zero()
	}
	return t
}

// GetUninit is Get without the zeroing: a recycled buffer keeps what
// its last owner wrote. It is for a caller that overwrites every
// element before it reads any — an overwriting matmul, an elementwise
// kernel, a normalisation — and saves the clear that the first write
// would make redundant.
func (s *Scratch) GetUninit(shape ...int) *Tensor {
	t, _ := s.get(shape)
	if poisonUninit {
		t.Fill(uninitPoison)
	}
	return t
}

// get takes a buffer of the shape's element count off its free list,
// or allocates a zeroed one, and reports which.
func (s *Scratch) get(shape []int) (t *Tensor, recycled bool) {
	if s == nil {
		return New(shape...), false
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	s.mu.Lock()
	s.gets++
	s.out += int64(n) * 4
	s.peak = max(s.peak, s.out)
	if list := s.free[n]; len(list) > 0 {
		t = list[len(list)-1]
		list[len(list)-1] = nil
		s.free[n] = list[:len(list)-1]
		t.free = false
		s.hits++
		s.bytes -= int64(n) * 4
	}
	s.mu.Unlock()
	if t == nil {
		t = New(shape...)
		t.home = s
		return t, false
	}
	t.shape = append(t.shape[:0], shape...)
	return t, true
}

// Put returns tensors to the arenas that handed them out: one from
// another arena is passed on to it, and one that no arena has held is
// adopted by s without counting against its Outstanding. Nil entries
// and duplicates of already-put buffers are ignored — a put tensor
// carries a mark, so spotting one costs no scan of its free list — and
// size classes past their cap fall through to the garbage collector.
func (s *Scratch) Put(ts ...*Tensor) {
	if s == nil {
		return
	}
	foreign := false
	s.mu.Lock()
	for _, t := range ts {
		if t == nil || len(t.data) == 0 {
			continue
		}
		if t.home != nil && t.home != s {
			foreign = true
			continue
		}
		s.put(t)
	}
	s.mu.Unlock()
	if foreign {
		for _, t := range ts {
			if t != nil && t.home != nil && t.home != s {
				t.home.Put(t)
			}
		}
	}
}

// put takes back t, which s handed out or adopts; s.mu is held.
func (s *Scratch) put(t *Tensor) {
	if t.free {
		return
	}
	n := len(t.data)
	if t.home == nil {
		t.home = s
	} else {
		s.out -= int64(n) * 4
	}
	t.free = true // also past the cap: the mark still stops a second Put
	list := s.free[n]
	if len(list) >= scratchMaxPerClass {
		return
	}
	s.free[n] = append(list, t)
	s.bytes += int64(n) * 4
}

// Stats reports the total Get count and how many were served from the
// free lists.
func (s *Scratch) Stats() (gets, hits uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.hits
}

// RetainedBytes reports how much buffer memory the arena currently
// holds on its free lists.
func (s *Scratch) RetainedBytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Outstanding reports the bytes Get has handed out and Put has not
// taken back, and their high-water mark since the last ResetPeak: what
// the arena's owners hold at once, the measured side of a priced
// working set.
func (s *Scratch) Outstanding() (bytes, peak int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out, s.peak
}

// ResetPeak restarts the high-water mark at the bytes outstanding now.
func (s *Scratch) ResetPeak() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.peak = s.out
	s.mu.Unlock()
}
