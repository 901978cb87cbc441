package sim

// Resource is a counted resource (e.g. GPU compute engines): Acquire
// parks its continuation while all units are in use, FIFO.
type Resource struct {
	name     string
	reason   string // the deadlock-report reason, built once
	capacity int
	inUse    int
	signal   *Signal
	// parked holds the continuations waiting for a unit, oldest at head,
	// one for each retry waiting on signal: a Fire wakes the oldest
	// retry, and retry re-runs Acquire for the oldest continuation.
	parked []func()
	head   int
	retry  func()
}

// NewResource creates a resource with the given unit count.
func (k *Kernel) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	r := &Resource{name: name, reason: "resource " + name, capacity: capacity, signal: k.NewSignal()}
	r.retry = r.acquireOldest
	return r
}

// Acquire takes one unit and runs then. With a unit free, then runs
// inline; otherwise it is parked until a Release wakes it, when the
// check is repeated — a unit taken in between sends it back to the tail.
func (r *Resource) Acquire(then func()) {
	if r.inUse >= r.capacity {
		if r.head > 0 && len(r.parked) == cap(r.parked) {
			n := copy(r.parked, r.parked[r.head:])
			clear(r.parked[n:])
			r.parked, r.head = r.parked[:n], 0
		}
		r.parked = append(r.parked, then)
		r.signal.Wait(r.reason, r.retry)
		return
	}
	r.inUse++
	then()
}

// acquireOldest is a woken retry: Acquire again for the oldest parked
// continuation.
func (r *Resource) acquireOldest() {
	then := r.parked[r.head]
	r.parked[r.head] = nil
	if r.head++; r.head == len(r.parked) {
		r.parked, r.head = r.parked[:0], 0
	}
	r.Acquire(then)
}

// Release returns one unit and wakes one waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	r.signal.Fire()
}

// Capacity returns the unit count.
func (r *Resource) Capacity() int { return r.capacity }
