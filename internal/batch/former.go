package batch

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
	open    map[Key]*Group[M, S]
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
	return &Former[M, S]{maxSize: maxSize, open: make(map[Key]*Group[M, S])}
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
	g = f.open[key]
	if g != nil && g.Bytes+bytes > budget {
		f.Seal(g)
		sealed, g = g, nil
	}
	if g == nil {
		g = &Group[M, S]{Key: key}
		f.open[key] = g
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

// Seal closes g to further members and reports whether this call did
// it. It is idempotent, so a hold timer that fires after its group
// already sealed (full, over budget, drained) is a no-op for the caller.
func (f *Former[M, S]) Seal(g *Group[M, S]) bool {
	if g.sealed {
		return false
	}
	g.sealed = true
	delete(f.open, g.Key) // an unsealed group is the one forming under its key
	return true
}

// Drain seals and returns every group still forming.
func (f *Former[M, S]) Drain() []*Group[M, S] {
	groups := make([]*Group[M, S], 0, len(f.open))
	for _, g := range f.open {
		f.Seal(g) // deleting the current key while ranging is safe
		groups = append(groups, g)
	}
	return groups
}
