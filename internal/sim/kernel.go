// Package sim implements a deterministic discrete-event simulator with
// goroutine-backed processes, in the style of SimPy: processes run one
// at a time under kernel control, advancing a virtual clock, so every
// simulation is reproducible bit-for-bit regardless of host scheduling.
//
// The performance plane of the reproduction runs the Menos server,
// its clients and the network as sim processes, which is what lets a
// "154-second" vanilla fine-tuning iteration be measured in
// microseconds of wall time.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ErrDeadlock is returned by Run when no events remain but processes
// are still blocked.
var ErrDeadlock = errors.New("sim: deadlock")

// event is a scheduled occurrence: either waking a process or running a
// callback.
type event struct {
	at   time.Duration
	seq  uint64 // FIFO tiebreak for equal times
	proc *Proc
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel drives the simulation. It is not safe for concurrent use from
// outside; all interaction happens from sim processes or between Run
// calls.
type Kernel struct {
	now     time.Duration
	seq     uint64
	queue   eventHeap
	yielded chan struct{}
	parked  map[*Proc]string // blocked process -> reason (for deadlock reports)
	live    int
	running *Proc
}

// New creates an empty simulation at time zero.
func New() *Kernel {
	return &Kernel{
		yielded: make(chan struct{}),
		parked:  make(map[*Proc]string),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Proc is a simulation process. All Proc methods must be called from
// the process's own goroutine (inside the function passed to Spawn).
type Proc struct {
	kernel *Kernel
	name   string
	resume chan struct{}
	done   bool
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.kernel }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.kernel.now }

// Spawn creates a process that starts at the current virtual time.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{kernel: k, name: name, resume: make(chan struct{})}
	k.live++
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		k.live--
		k.yielded <- struct{}{}
	}()
	k.push(&event{at: k.now, proc: p})
	return p
}

// After schedules fn to run at now+d, outside any process context.
func (k *Kernel) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.push(&event{at: k.now + d, fn: fn})
}

func (k *Kernel) push(e *event) {
	k.seq++
	e.seq = k.seq
	heap.Push(&k.queue, e)
}

// Run executes events until the queue drains. It returns ErrDeadlock
// if blocked processes remain afterwards.
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with time ≤ limit (limit < 0 means no
// limit). Reaching the limit with events still queued is not an error;
// draining the queue with parked processes is a deadlock.
func (k *Kernel) RunUntil(limit time.Duration) error {
	for k.queue.Len() > 0 {
		next := k.queue[0]
		if limit >= 0 && next.at > limit {
			k.now = limit
			return nil
		}
		heap.Pop(&k.queue)
		k.now = next.at
		switch {
		case next.proc != nil:
			k.dispatch(next.proc)
		case next.fn != nil:
			next.fn()
		}
	}
	if len(k.parked) > 0 {
		return fmt.Errorf("%w: %s", ErrDeadlock, k.parkedSummary())
	}
	return nil
}

func (k *Kernel) parkedSummary() string {
	var parts []string
	for p, reason := range k.parked {
		parts = append(parts, fmt.Sprintf("%s (%s)", p.name, reason))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// dispatch resumes a process and waits for it to park or finish.
func (k *Kernel) dispatch(p *Proc) {
	if p.done {
		return
	}
	delete(k.parked, p)
	prev := k.running
	k.running = p
	p.resume <- struct{}{}
	<-k.yielded
	k.running = prev
}

// park blocks the calling process until the kernel resumes it.
func (p *Proc) park(reason string) {
	k := p.kernel
	k.parked[p] = reason
	k.yielded <- struct{}{}
	<-p.resume
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k := p.kernel
	k.push(&event{at: k.now + d, proc: p})
	p.park(fmt.Sprintf("sleeping until %v", k.now+d))
}

// Signal is a FIFO wait/wake synchronization point.
type Signal struct {
	kernel  *Kernel
	waiters []*Proc
}

// NewSignal creates a signal bound to the kernel.
func (k *Kernel) NewSignal() *Signal {
	return &Signal{kernel: k}
}

// Wait parks the calling process until the signal fires.
func (s *Signal) Wait(p *Proc, reason string) {
	s.waiters = append(s.waiters, p)
	p.park("waiting: " + reason)
}

// Fire wakes one waiter (FIFO). It reports whether a waiter existed.
func (s *Signal) Fire() bool {
	if len(s.waiters) == 0 {
		return false
	}
	p := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.kernel.push(&event{at: s.kernel.now, proc: p})
	return true
}
