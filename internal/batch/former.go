package batch

import "slices"

// Former is the batch-formation policy with no clock and no goroutines:
// who may share a batch (equal Keys), when a forming group closes (it
// reached maxSize, or one more member would push it past the byte
// budget of one scheduler grant), and that a group closes exactly once.
// Its drivers supply the clock and call Seal when a group's hold
// expires: Engine on the wall clock, the simulator (splitsim) in
// virtual time.
//
// M is a member; S is whatever a driver keeps per group (open time,
// timer, batch ID). Not safe for concurrent use: Engine guards it with
// its mutex, the simulation kernel is single-threaded.
type Former[M, S any] struct {
	maxSize int
	// open holds the groups still forming, oldest first: at most one per
	// key, and a server forms under a handful of keys, so Add finds a
	// key's group by comparing keys rather than hashing one.
	open []*Group[M, S]
	free []*Group[M, S] // recycled groups, reopened before any is allocated
}

// Group is one batch, forming or sealed. Members are in join order.
type Group[M, S any] struct {
	Key     Key
	Members []M
	Bytes   int64 // Σ member bytes
	State   S     // the driver's; the Former never reads it

	sealed bool
}

// NewFormer returns a Former whose groups seal at maxSize members.
func NewFormer[M, S any](maxSize int) *Former[M, S] {
	return &Former[M, S]{maxSize: maxSize}
}

// forming returns the group forming under key, or nil.
func (f *Former[M, S]) forming(key Key) *Group[M, S] {
	for _, g := range f.open {
		if g.Key == key {
			return g
		}
	}
	return nil
}

// Add joins m (needing bytes of scheduler memory) to the group forming
// under key and returns that group; opened reports that m started it,
// which is when the driver arms its hold timer. budget is what one
// grant can hold right now: if m would push the forming group past it,
// that group seals as it is and m opens a fresh one — so a member too
// large on its own ends up alone. The joined group seals when m fills
// it. sealed is the group this call sealed, if any, for the driver to
// dispatch (never two: an overflow leaves a fresh group of one, and
// under maxSize 1 no group stays open to overflow).
func (f *Former[M, S]) Add(key Key, m M, bytes, budget int64) (g *Group[M, S], opened bool, sealed *Group[M, S]) {
	g = f.forming(key)
	if g != nil && g.Bytes+bytes > budget {
		f.Seal(g)
		sealed, g = g, nil
	}
	if g == nil {
		g = f.newGroup(key)
		f.open = append(f.open, g)
		opened = true
	}
	g.Members = append(g.Members, m)
	g.Bytes += bytes
	if len(g.Members) >= f.maxSize {
		f.Seal(g)
		sealed = g
	}
	return g, opened, sealed
}

// inlineMembers is how many members a group holds inside its own
// allocation. The benchmark's batched workloads cap batches at 8; a
// larger cap (the multilora sweep's 16) gives its groups a second
// allocation for the member array.
const inlineMembers = 8

// newGroup opens an empty group under key with room for maxSize members,
// so joins never grow it: a recycled one, or one allocation up to
// inlineMembers.
func (f *Former[M, S]) newGroup(key Key) *Group[M, S] {
	if n := len(f.free); n > 0 {
		g := f.free[n-1]
		f.free[n-1], f.free = nil, f.free[:n-1]
		g.Key = key
		return g
	}
	if f.maxSize > inlineMembers {
		return &Group[M, S]{Key: key, Members: make([]M, 0, f.maxSize)}
	}
	a := &struct {
		g       Group[M, S]
		members [inlineMembers]M
	}{}
	a.g.Key, a.g.Members = key, a.members[:0:f.maxSize]
	return &a.g
}

// Seal closes g to further members and reports whether this call did
// it. It is idempotent, so a hold timer that fires after its group
// already sealed (full, over budget, drained) is a no-op for the caller.
func (f *Former[M, S]) Seal(g *Group[M, S]) bool {
	if g.sealed {
		return false
	}
	g.sealed = true
	// An unsealed group is the one forming under its key.
	i := slices.Index(f.open, g)
	f.open = slices.Delete(f.open, i, i+1)
	return true
}

// Recycle hands sealed group g back once its batch has run and its
// driver is done with it, for Add to reopen under any key. g keeps its
// State, so a driver can pool what it keeps per group with the group;
// its members are dropped.
func (f *Former[M, S]) Recycle(g *Group[M, S]) {
	clear(g.Members)
	g.Members, g.Bytes, g.sealed = g.Members[:0], 0, false
	f.free = append(f.free, g)
}

// Drain seals and returns every group still forming, in the order they
// opened.
func (f *Former[M, S]) Drain() []*Group[M, S] {
	groups := slices.Clone(f.open)
	for _, g := range groups {
		f.Seal(g)
	}
	return groups
}
