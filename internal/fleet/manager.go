package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"menos/internal/obs"
)

// Manager is the fleet's bookkeeping plane on both control planes (the
// simulator and menos-fleetd's Controller): which servers exist, which
// clients live where, and how much transient demand each server has
// committed. Its state is one ServerLoad row per server in ID order:
// the Manager keeps each row's clients, committed bytes and drain flag,
// what the server reports arrives through Observe, and Place and
// Rebalance hand the rows to the Placer as they are. It publishes the
// menos_fleet_* metrics. Decisions are deterministic regardless of map
// layout.
type Manager struct {
	mu     sync.Mutex
	placer Placer

	rows     []ServerLoad
	draining int                 // rows with Draining set
	down     map[int]bool        // servers whose last poll failed (fleetd only)
	active   []ServerLoad        // candidate rows, refilled per decision while any server drains or is down
	assign   map[string]resident // client ID -> where it lives

	migrations int64 // the one count with no family

	// The placement and scale-event counters always exist, standalone
	// until Instrument, because Stats reads them. The gauges are nil
	// until Instrument.
	mPlacements  *obs.Counter
	mServers     *obs.Gauge
	mScaleEvents *obs.Counter
	mImbalance   *obs.Gauge
}

// resident is a placed client's server and the transient peak it
// committed there.
type resident struct {
	server    int
	committed int64
}

// NewManager builds a Manager around placer (nil means RoundRobin, the
// bit-identical-to-history default).
func NewManager(placer Placer) *Manager {
	if placer == nil {
		placer = NewRoundRobin()
	}
	return &Manager{
		placer:       placer,
		assign:       make(map[string]resident),
		down:         make(map[int]bool),
		mPlacements:  new(obs.Counter),
		mScaleEvents: new(obs.Counter),
	}
}

// Expect sizes the Manager's client table for n clients, so a control
// plane that knows its roster up front does not grow it placement by
// placement. Setup-time only, before the first placement.
func (m *Manager) Expect(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.assign) == 0 {
		m.assign = make(map[string]resident, n)
	}
}

// Placer returns the policy in use.
func (m *Manager) Placer() Placer { return m.placer }

// Instrument wires the menos_fleet_* metrics into reg (nil-safe). Call
// during setup, before decisions are made: counts made earlier stay
// behind.
func (m *Manager) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mPlacements = reg.Counter(obs.MetricFleetPlacements, "client placements decided")
	m.mServers = reg.Gauge(obs.MetricFleetServers, "active (non-draining) servers")
	m.mScaleEvents = reg.Counter(obs.MetricFleetScaleEvents, "autoscaler scale-up/down events")
	m.mImbalance = reg.Gauge(obs.MetricFleetImbalance, "max/mean resident clients per active server, thousandths")
	m.publishLocked()
}

// AddServer registers a server. Its signals read as zero until the
// first Observe.
func (m *Manager) AddServer(id int, capacity int64, models []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.indexLocked(id)
	if ok {
		return fmt.Errorf("fleet: server %d already registered", id)
	}
	m.rows = slices.Insert(m.rows, i, ServerLoad{
		ID:            id,
		CapacityBytes: capacity,
		Models:        append([]string(nil), models...),
	})
	m.publishLocked()
	return nil
}

// Observe records what server id reports, which every later decision
// and Loads snapshot reads until the next Observe. An unregistered id is
// ignored.
func (m *Manager) Observe(id int, sig Signals) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.indexLocked(id); ok {
		r := &m.rows[i]
		r.QueueDepth, r.UsedBytes, r.Admission = sig.QueueDepth, sig.UsedBytes, sig.Admission
		if sig.CapacityBytes != 0 {
			r.CapacityBytes = sig.CapacityBytes
		}
		if sig.Models != nil {
			r.Models = sig.Models
		}
	}
}

// setPolled records one poll of server id: ok false marks it down (no
// candidate) and keeps its row as last seen; ok true marks it up and
// makes its row's clients and committed bytes those of sessions. A
// client ID two servers report counts on both rows and resides on the
// server that reported it last.
func (m *Manager) setPolled(id int, ok bool, sessions []SessionInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, registered := m.indexLocked(id)
	if !registered {
		return
	}
	if !ok {
		m.down[id] = true
		return
	}
	delete(m.down, id)
	for cid, placed := range m.assign {
		if placed.server == id {
			delete(m.assign, cid)
		}
	}
	r := &m.rows[i]
	r.Clients, r.CommittedBytes = len(sessions), 0
	for _, s := range sessions {
		r.CommittedBytes += s.DemandBytes
		m.assign[s.ClientID] = resident{server: id, committed: s.DemandBytes}
	}
	m.publishLocked()
}

// isDown reports whether server id's last poll failed (or it has had
// none yet).
func (m *Manager) isDown(id int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down[id]
}

// Drain marks a server as scaling down: it stops receiving placements
// and Rebalance moves its clients away. Draining the last active server
// returns ErrLastServer; a server that is down counts as active.
func (m *Manager) Drain(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.indexLocked(id)
	if !ok {
		return fmt.Errorf("fleet: drain: unknown server %d", id)
	}
	if m.rows[i].Draining {
		return nil
	}
	if m.activeLocked() <= 1 {
		return fmt.Errorf("%w (server %d)", ErrLastServer, id)
	}
	m.rows[i].Draining = true
	m.draining++
	m.publishLocked()
	return nil
}

// Remove deregisters a drained, empty server. It is an error to remove
// a server that still hosts clients.
func (m *Manager) Remove(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.indexLocked(id)
	if !ok {
		return fmt.Errorf("fleet: remove: unknown server %d", id)
	}
	if n := m.rows[i].Clients; n > 0 {
		return fmt.Errorf("fleet: remove: server %d still hosts %d clients", id, n)
	}
	if m.rows[i].Draining {
		m.draining--
	}
	delete(m.down, id)
	m.rows = slices.Delete(m.rows, i, i+1)
	m.publishLocked()
	return nil
}

// errPlaced is Place's error for a client that already has a server.
var errPlaced = errors.New("fleet: client already placed")

// Place decides a server for client c, records the assignment, and
// returns the server ID. Draining and down servers are never
// candidates. A client that already has a candidate server gets it
// with errPlaced; one whose server is draining or down is placed again.
func (m *Manager) Place(c ClientInfo) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if placed, ok := m.assign[c.ID]; ok {
		if i, _ := m.indexLocked(placed.server); !m.rows[i].Draining && !m.down[placed.server] {
			return placed.server, fmt.Errorf("%w: %q", errPlaced, c.ID)
		}
		m.detachLocked(c.ID)
	}
	id, err := m.placer.Place(c, m.candidatesLocked())
	if err != nil {
		return 0, err
	}
	i, ok := m.indexLocked(id)
	if !ok {
		return 0, fmt.Errorf("fleet: placer %s chose unknown server %d", m.placer.Name(), id)
	}
	m.attachLocked(i, c)
	m.mPlacements.Inc()
	m.publishLocked()
	return id, nil
}

// Unplace reverts a placement whose physical admission failed (the
// chosen server could not actually hold the client), so the caller can
// retry after the fleet changes.
func (m *Manager) Unplace(clientID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.detachLocked(clientID)
	m.publishLocked()
}

// Depart removes a finished client's assignment (its persistent state
// left the server).
func (m *Manager) Depart(clientID string) { m.Unplace(clientID) }

// Rebalance re-places an already-resident client. A move happens only
// when the client's server is draining (forced evacuation) or when the
// placer's choice is strictly better — the target must end up with
// fewer clients than the source has now, which damps oscillation. fit,
// when non-nil, lets the caller veto targets that cannot physically
// admit the client right now. Rebalance returns the target server and
// whether a migration happened; the caller performs the actual state
// transfer.
func (m *Manager) Rebalance(c ClientInfo, fit func(serverID int) bool) (int, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	placed, ok := m.assign[c.ID]
	if !ok {
		return 0, false, fmt.Errorf("fleet: rebalance: client %q not placed", c.ID)
	}
	cur := placed.server
	id, err := m.placer.Place(c, m.candidatesLocked())
	if err != nil || id == cur {
		return cur, false, nil
	}
	dst, ok := m.indexLocked(id)
	if !ok {
		return cur, false, nil
	}
	src, _ := m.indexLocked(cur)
	if !improves(m.rows[src], m.rows[dst]) {
		return cur, false, nil
	}
	if fit != nil && !fit(id) {
		return cur, false, nil
	}
	m.detachLocked(c.ID)
	m.attachLocked(dst, c)
	m.migrations++
	m.publishLocked()
	return id, true, nil
}

// undoMove puts client c back on server src after Rebalance moved it
// away but the move could not be carried out.
func (m *Manager) undoMove(c ClientInfo, src int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, _ := m.indexLocked(src) // src is registered: c resided there
	m.detachLocked(c.ID)
	m.attachLocked(i, c)
	m.migrations--
	m.publishLocked()
}

// DrainCandidate picks the server an autoscaler should drain next: the
// active server with the fewest resident clients, ties to the lowest
// ID. ok is false when no server may be drained (only one active).
func (m *Manager) DrainCandidate() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.activeLocked() <= 1 {
		return 0, false
	}
	best, bestClients := -1, 0
	for _, r := range m.rows {
		if !r.Draining && (best < 0 || r.Clients < bestClients) {
			best, bestClients = r.ID, r.Clients
		}
	}
	return best, true
}

// Loads snapshots every non-removed server's ServerLoad (including
// draining ones, flagged) with its last observed signals, in ID order.
func (m *Manager) Loads() []ServerLoad {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.rows)
}

// ServerOf returns the server currently hosting clientID.
func (m *Manager) ServerOf(clientID string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	placed, ok := m.assign[clientID]
	return placed.server, ok
}

// ClientCount returns the number of clients resident on server id
// (zero for unknown servers).
func (m *Manager) ClientCount(id int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.indexLocked(id); ok {
		return m.rows[i].Clients
	}
	return 0
}

// ActiveServers counts non-draining servers.
func (m *Manager) ActiveServers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.activeLocked()
}

// RecordScaleEvent counts one autoscaler action (the Manager owns the
// fleet metrics; the Autoscaler is a pure state machine).
func (m *Manager) RecordScaleEvent() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mScaleEvents.Inc()
}

// Imbalance returns max/mean resident clients across active servers
// (1.0 is perfectly balanced; 0 when the fleet is empty or unused).
func (m *Manager) Imbalance() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.imbalanceLocked()
}

// Stats is a snapshot of the Manager's counters.
type Stats struct {
	Placements  int64
	Migrations  int64
	ScaleEvents int64
	Servers     int // active (non-draining)
	Draining    int
}

// Stats snapshots the fleet counters, placements and scale events read
// from the counters /metrics shows.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Placements:  m.mPlacements.Value(),
		Migrations:  m.migrations,
		ScaleEvents: m.mScaleEvents.Value(),
		Servers:     m.activeLocked(),
		Draining:    m.draining,
	}
}

// indexLocked returns server id's row index, or where it would be
// inserted and false. Caller holds m.mu.
func (m *Manager) indexLocked(id int) (int, bool) {
	if id >= 0 && id < len(m.rows) && m.rows[id].ID == id {
		return id, true // the common case: IDs handed out densely from 0
	}
	i := sort.Search(len(m.rows), func(i int) bool { return m.rows[i].ID >= id })
	return i, i < len(m.rows) && m.rows[i].ID == id
}

// candidatesLocked returns the rows a decision may choose from: every
// server that is neither draining nor down, so no Placer ever sees such
// a server. Caller holds m.mu.
func (m *Manager) candidatesLocked() []ServerLoad {
	if m.draining == 0 && len(m.down) == 0 {
		return m.rows
	}
	m.active = m.active[:0]
	for _, r := range m.rows {
		if !r.Draining && !m.down[r.ID] {
			m.active = append(m.active, r)
		}
	}
	return m.active
}

// attachLocked records client c on row i. Caller holds m.mu.
func (m *Manager) attachLocked(i int, c ClientInfo) {
	r := &m.rows[i]
	r.Clients++
	r.CommittedBytes += c.TransientPeakBytes
	m.assign[c.ID] = resident{server: r.ID, committed: c.TransientPeakBytes}
}

// detachLocked removes clientID from its server. Caller holds m.mu.
func (m *Manager) detachLocked(clientID string) {
	placed, ok := m.assign[clientID]
	if !ok {
		return
	}
	if i, ok := m.indexLocked(placed.server); ok {
		m.rows[i].Clients--
		m.rows[i].CommittedBytes -= placed.committed
	}
	delete(m.assign, clientID)
}

// activeLocked counts non-draining servers. Caller holds m.mu.
func (m *Manager) activeLocked() int { return len(m.rows) - m.draining }

// imbalanceLocked computes max/mean resident clients over active
// servers. Caller holds m.mu.
func (m *Manager) imbalanceLocked() float64 {
	total, maxC := 0, 0
	for _, r := range m.rows {
		if !r.Draining {
			total += r.Clients
			maxC = max(maxC, r.Clients)
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(m.activeLocked())
	return float64(maxC) / mean
}

// publishLocked refreshes the fleet gauges, when instrumented. Caller
// holds m.mu.
func (m *Manager) publishLocked() {
	if m.mServers == nil {
		return
	}
	m.mServers.Set(int64(m.activeLocked()))
	m.mImbalance.Set(int64(m.imbalanceLocked() * 1000))
}
