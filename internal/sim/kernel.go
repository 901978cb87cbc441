// Package sim implements a deterministic discrete-event simulator of
// run-to-completion handlers. The kernel calls one event handler at a
// time, in virtual-time order with FIFO tie-breaking, and a handler runs
// to completion: where a simulated process would block, it hands its
// continuation to a primitive (After, Signal.Wait, Resource.Acquire) and
// returns. Every simulation is therefore reproducible bit-for-bit
// regardless of host scheduling, and no event costs a goroutine, a
// channel hand-off or an allocation in the kernel.
//
// The performance plane of the reproduction runs the Menos server,
// its clients and the network as sim handlers, which is what lets a
// "154-second" vanilla fine-tuning iteration be measured in
// microseconds of wall time.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ErrDeadlock is returned by Run when no events remain but
// continuations are still parked on signals.
var ErrDeadlock = errors.New("sim: deadlock")

// event is a scheduled handler call. seq breaks ties between equal
// times in scheduling order.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel drives the simulation. It is not safe for concurrent use: all
// interaction happens from event handlers or between Run calls.
type Kernel struct {
	now   time.Duration
	seq   uint64
	queue []event // binary min-heap by (at, seq), held by value
	// blocked counts continuations parked on signals; signals lists
	// every signal so a deadlock report can name what each one waits for.
	blocked int
	signals []*Signal
}

// New creates an empty simulation at time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// After schedules fn to run at now+d; a negative d counts as zero. A
// zero delay yields: fn runs after every event already due now.
func (k *Kernel) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.push(k.now+d, fn)
}

func (k *Kernel) push(at time.Duration, fn func()) {
	k.seq++
	e := event{at: at, seq: k.seq, fn: fn}
	q := append(k.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	k.queue = q
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the handler reference
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && q[r].before(&q[child]) {
				child = r
			}
			if !q[child].before(&last) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = last
	}
	k.queue = q
	return top
}

// Run executes events until the queue drains. It returns ErrDeadlock
// if continuations are still parked on signals afterwards.
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with time ≤ limit (limit < 0 means no
// limit). Reaching the limit with events still queued is not an error;
// draining the queue with parked continuations is a deadlock.
func (k *Kernel) RunUntil(limit time.Duration) error {
	for len(k.queue) > 0 {
		if limit >= 0 && k.queue[0].at > limit {
			k.now = limit
			return nil
		}
		e := k.pop()
		k.now = e.at
		e.fn()
	}
	if k.blocked > 0 {
		return fmt.Errorf("%w: %d blocked: %s", ErrDeadlock, k.blocked, k.blockedSummary())
	}
	return nil
}

// blockedSummary names every parked wait by its reason, sorted. It is
// the only place a reason is formatted.
func (k *Kernel) blockedSummary() string {
	var parts []string
	for _, s := range k.signals {
		for _, w := range s.waiters[s.head:] {
			parts = append(parts, w.reason)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// Signal is a FIFO wait/wake synchronization point.
type Signal struct {
	kernel  *Kernel
	waiters []waiter // FIFO from head; reset to empty when drained
	head    int
}

type waiter struct {
	reason string
	then   func()
}

// NewSignal creates a signal bound to the kernel.
func (k *Kernel) NewSignal() *Signal {
	s := &Signal{kernel: k}
	k.signals = append(k.signals, s)
	return s
}

// Wait parks then until a Fire picks it, FIFO. reason names the wait
// in a deadlock report; it is stored, never formatted, on this path.
func (s *Signal) Wait(reason string, then func()) {
	s.waiters = append(s.waiters, waiter{reason: reason, then: then})
	s.kernel.blocked++
}

// Fire schedules the oldest waiter's continuation as an event at the
// current time — never inline — and reports whether a waiter existed.
func (s *Signal) Fire() bool {
	if s.head == len(s.waiters) {
		return false
	}
	w := s.waiters[s.head]
	s.waiters[s.head] = waiter{}
	if s.head++; s.head == len(s.waiters) {
		s.waiters, s.head = s.waiters[:0], 0
	}
	s.kernel.blocked--
	s.kernel.push(s.kernel.now, w.then)
	return true
}
