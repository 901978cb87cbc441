package sim

// Resource is a counted resource (e.g. GPU compute engines): Acquire
// parks its continuation while all units are in use, FIFO.
type Resource struct {
	name     string
	reason   string // the deadlock-report reason, built once
	capacity int
	inUse    int
	signal   *Signal
}

// NewResource creates a resource with the given unit count.
func (k *Kernel) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{name: name, reason: "resource " + name, capacity: capacity, signal: k.NewSignal()}
}

// Acquire takes one unit and runs then. With a unit free, then runs
// inline; otherwise it is parked until a Release wakes it, when the
// check is repeated — a unit taken in between sends it back to the tail.
func (r *Resource) Acquire(then func()) {
	if r.inUse >= r.capacity {
		r.signal.Wait(r.reason, func() { r.Acquire(then) })
		return
	}
	r.inUse++
	then()
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
