package sim

// Resource is a counted resource (e.g. GPU compute engines): Acquire
// parks the process while all units are in use, FIFO.
type Resource struct {
	kernel   *Kernel
	name     string
	capacity int
	inUse    int
	signal   *Signal
}

// NewResource creates a resource with the given unit count.
func (k *Kernel) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{kernel: k, name: name, capacity: capacity, signal: k.NewSignal()}
}

// Acquire takes one unit, parking until one is free.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.signal.Wait(p, "resource "+r.name)
	}
	r.inUse++
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
