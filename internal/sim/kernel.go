// Package sim implements a deterministic discrete-event simulator of
// run-to-completion handlers. The kernel calls one event handler at a
// time, in virtual-time order with FIFO tie-breaking, and a handler runs
// to completion: where a simulated process would block, it hands its
// continuation to a primitive (After, Signal.Wait, Resource.Acquire) and
// returns. Every simulation is therefore reproducible bit-for-bit
// regardless of host scheduling, and no event costs a goroutine, a
// channel hand-off or an allocation in the kernel.
//
// The queue orders instants, not events: an instant is a FIFO of the
// handlers due at one time, and a push joins the newest instant when
// its time matches. Processes that move in lock-step therefore pay a
// heap operation per due time they open, not per event.
//
// The performance plane of the reproduction runs the Menos server,
// its clients and the network as sim handlers, which is what lets a
// "154-second" vanilla fine-tuning iteration be measured in
// microseconds of wall time.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// ErrDeadlock is returned by Run when no events remain but
// continuations are still parked on signals.
var ErrDeadlock = errors.New("sim: deadlock")

// node is one scheduled handler, linked into its instant's FIFO while
// pending and into the kernel's free list once dispatched. Nodes are
// named by their index in Kernel.nodes; 0 names none.
type node struct {
	fn   func()
	next int
}

// instant is every handler due at one time that was pushed while it was
// the newest instant, so its handlers are contiguous in scheduling
// order: a FIFO of nodes from head. Instants run in (at, seq) order,
// seq numbering them as they open.
type instant struct {
	at   time.Duration
	seq  uint64
	head int
}

func (e *instant) before(o *instant) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel drives the simulation. It is not safe for concurrent use: all
// interaction happens from event handlers or between Run calls.
type Kernel struct {
	now   time.Duration
	seq   uint64    // the newest instant's seq
	queue []instant // binary min-heap by (at, seq), held by value
	nodes []node    // every handler node; nodes[0] is unused
	free  int       // the first free node
	// tail is the newest instant's last node while it is pending, and
	// lastAt its time.
	tail   int
	lastAt time.Duration
	// blocked counts continuations parked on signals; signals lists
	// every signal so a deadlock report can name what each one waits for.
	blocked int
	signals []*Signal
}

// New creates an empty simulation at time zero.
func New() *Kernel { return &Kernel{nodes: make([]node, 1)} }

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

// push schedules fn at at, behind everything already scheduled at at.
// Joining the newest instant keeps that order: every other instant at
// at opened before it and sorts ahead by seq. Any other time opens an
// instant, which sorts behind every pending one at its time.
func (k *Kernel) push(at time.Duration, fn func()) {
	n := k.free
	if n != 0 {
		k.free = k.nodes[n].next
		k.nodes[n] = node{fn: fn}
	} else {
		n = len(k.nodes)
		k.nodes = append(k.nodes, node{fn: fn})
	}
	if k.tail != 0 && k.lastAt == at {
		k.nodes[k.tail].next = n
		k.tail = n
		return
	}
	k.tail, k.lastAt = n, at
	k.seq++
	e := instant{at: at, seq: k.seq, head: n}
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

// pop removes the earliest instant, which has run its last handler.
func (k *Kernel) pop() {
	q := k.queue
	if q[0].seq == k.seq {
		k.tail = 0 // the newest instant is gone: the next push opens one
	}
	n := len(q) - 1
	last := q[n]
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
}

// Run executes events until the queue drains. It returns ErrDeadlock
// if continuations are still parked on signals afterwards.
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with time ≤ limit (limit < 0 means no
// limit). Reaching the limit with events still queued is not an error:
// the clock then reads limit, or stays put if it is already later, as
// time never runs backwards. Draining the queue with parked
// continuations is a deadlock.
func (k *Kernel) RunUntil(limit time.Duration) error {
	for len(k.queue) > 0 {
		top := &k.queue[0]
		if limit >= 0 && top.at > limit {
			k.now = max(k.now, limit)
			return nil
		}
		k.now = top.at
		n := &k.nodes[top.head]
		fn, next := n.fn, n.next
		// Free the node, dropping the handler reference.
		n.fn, n.next, k.free = nil, k.free, top.head
		if next != 0 {
			top.head = next
		} else {
			k.pop()
		}
		fn()
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
			if w.subject != "" {
				parts = append(parts, w.reason+" "+w.subject)
			} else {
				parts = append(parts, w.reason)
			}
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
	// first backs waiters until a second continuation parks, so a
	// signal with one waiter at a time never allocates.
	first [1]waiter
}

type waiter struct {
	reason, subject string
	then            func()
}

// NewSignal creates a signal bound to the kernel.
func (k *Kernel) NewSignal() *Signal {
	return &k.NewSignals(1)[0]
}

// NewSignals creates n signals bound to the kernel in one allocation,
// for a simulation that gives each of n processes its own.
func (k *Kernel) NewSignals(n int) []Signal {
	sigs := make([]Signal, n)
	k.signals = slices.Grow(k.signals, n)
	for i := range sigs {
		s := &sigs[i]
		s.kernel, s.waiters = k, s.first[:0]
		k.signals = append(k.signals, s)
	}
	return sigs
}

// Wait parks then until a Fire picks it, FIFO. reason names the wait
// in a deadlock report; it is stored, never formatted, on this path.
func (s *Signal) Wait(reason string, then func()) { s.WaitFor(reason, "", then) }

// WaitFor is Wait for a wait whose report names who waits as well:
// "reason subject". The two are joined only if the report is written,
// so a process can park under its own ID without building a string.
func (s *Signal) WaitFor(reason, subject string, then func()) {
	if s.head > 0 && len(s.waiters) == cap(s.waiters) {
		// A signal that never drains would otherwise grow by every wait
		// it ever held: move the live waiters down instead.
		n := copy(s.waiters, s.waiters[s.head:])
		clear(s.waiters[n:])
		s.waiters, s.head = s.waiters[:n], 0
	}
	s.waiters = append(s.waiters, waiter{reason: reason, subject: subject, then: then})
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
