package fleet

import (
	"fmt"
	"sort"
	"sync"

	"menos/internal/obs"
)

// Manager is the fleet's bookkeeping plane: which servers exist, which
// clients live where, and how much transient demand each server has
// committed. It delegates the actual choice to a Placer and publishes
// the menos_fleet_* metrics. All iteration is in sorted server-ID
// order, so decisions are deterministic regardless of map layout.
type Manager struct {
	mu     sync.Mutex
	placer Placer

	servers map[int]*serverEntry
	order   []int          // sorted server IDs
	assign  map[string]int // client ID -> server ID
	// loads is the ServerLoad buffer Place and Rebalance hand the
	// placer, refilled under mu for every decision.
	loads []ServerLoad

	placements  int64
	migrations  int64
	scaleEvents int64

	// Telemetry handles (nil-safe; wired by Instrument).
	mPlacements  *obs.Counter
	mMigrations  *obs.Counter
	mServers     *obs.Gauge
	mScaleEvents *obs.Counter
	mImbalance   *obs.Gauge
}

// serverEntry is the Manager's record of one server.
type serverEntry struct {
	id        int
	capacity  int64
	models    []string
	probe     Probe
	clients   map[string]int64 // client ID -> committed transient bytes
	committed int64            // sum of clients' transient peaks
	draining  bool
}

// NewManager builds a Manager around placer (nil means RoundRobin, the
// bit-identical-to-history default).
func NewManager(placer Placer) *Manager {
	if placer == nil {
		placer = NewRoundRobin()
	}
	return &Manager{
		placer:  placer,
		servers: make(map[int]*serverEntry),
		assign:  make(map[string]int),
	}
}

// Placer returns the policy in use.
func (m *Manager) Placer() Placer { return m.placer }

// Instrument wires the menos_fleet_* metrics into reg (nil-safe). Call
// during setup, before decisions are made.
func (m *Manager) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mPlacements = reg.Counter(obs.MetricFleetPlacements, "client placements decided")
	m.mMigrations = reg.Counter(obs.MetricFleetMigrations, "clients migrated between servers")
	m.mServers = reg.Gauge(obs.MetricFleetServers, "active (non-draining) servers")
	m.mScaleEvents = reg.Counter(obs.MetricFleetScaleEvents, "autoscaler scale-up/down events")
	m.mImbalance = reg.Gauge(obs.MetricFleetImbalance, "max/mean resident clients per active server, thousandths")
	m.publishLocked()
}

// AddServer registers a server. Probe may be nil (signals read as
// zero), which only makes sense for tests.
func (m *Manager) AddServer(id int, capacity int64, models []string, probe Probe) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.servers[id]; ok {
		return fmt.Errorf("fleet: server %d already registered", id)
	}
	m.servers[id] = &serverEntry{
		id:       id,
		capacity: capacity,
		models:   append([]string(nil), models...),
		probe:    probe,
		clients:  make(map[string]int64),
	}
	m.order = append(m.order, id)
	sort.Ints(m.order)
	m.publishLocked()
	return nil
}

// Drain marks a server as scaling down: it stops receiving placements
// and Rebalance moves its clients away. The last active server cannot
// be drained.
func (m *Manager) Drain(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.servers[id]
	if !ok {
		return fmt.Errorf("fleet: drain: unknown server %d", id)
	}
	if e.draining {
		return nil
	}
	if m.activeLocked() <= 1 {
		return fmt.Errorf("fleet: cannot drain the last active server %d", id)
	}
	e.draining = true
	m.publishLocked()
	return nil
}

// Remove deregisters a drained, empty server. It is an error to remove
// a server that still hosts clients.
func (m *Manager) Remove(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.servers[id]
	if !ok {
		return fmt.Errorf("fleet: remove: unknown server %d", id)
	}
	if len(e.clients) > 0 {
		return fmt.Errorf("fleet: remove: server %d still hosts %d clients", id, len(e.clients))
	}
	delete(m.servers, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.publishLocked()
	return nil
}

// Place decides a server for client c, records the assignment, and
// returns the server ID. Draining servers are never candidates.
func (m *Manager) Place(c ClientInfo) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.assign[c.ID]; ok {
		return 0, fmt.Errorf("fleet: client %q already placed", c.ID)
	}
	m.loads = m.appendLoadsLocked(m.loads[:0], false)
	id, err := m.placer.Place(c, m.loads)
	if err != nil {
		return 0, err
	}
	e, ok := m.servers[id]
	if !ok {
		return 0, fmt.Errorf("fleet: placer %s chose unknown server %d", m.placer.Name(), id)
	}
	m.attachLocked(e, c)
	m.placements++
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
func (m *Manager) Depart(clientID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.detachLocked(clientID)
	m.publishLocked()
}

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
	cur, ok := m.assign[c.ID]
	if !ok {
		return 0, false, fmt.Errorf("fleet: rebalance: client %q not placed", c.ID)
	}
	src := m.servers[cur]
	m.loads = m.appendLoadsLocked(m.loads[:0], false)
	id, err := m.placer.Place(c, m.loads)
	if err != nil || id == cur {
		return cur, false, nil
	}
	dst, ok := m.servers[id]
	if !ok {
		return cur, false, nil
	}
	if !src.draining && len(dst.clients)+1 >= len(src.clients) {
		return cur, false, nil
	}
	if fit != nil && !fit(id) {
		return cur, false, nil
	}
	m.detachLocked(c.ID)
	m.attachLocked(dst, c)
	m.migrations++
	m.mMigrations.Inc()
	m.publishLocked()
	return id, true, nil
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
	best := -1
	bestClients := 0
	for _, id := range m.order {
		e := m.servers[id]
		if e.draining {
			continue
		}
		if best < 0 || len(e.clients) < bestClients {
			best = id
			bestClients = len(e.clients)
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Loads snapshots every non-removed server's ServerLoad (including
// draining ones, flagged), probing live signals, in ID order.
func (m *Manager) Loads() []ServerLoad {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendLoadsLocked(make([]ServerLoad, 0, len(m.order)), true)
}

// ServerOf returns the server currently hosting clientID.
func (m *Manager) ServerOf(clientID string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.assign[clientID]
	return id, ok
}

// ClientCount returns the number of clients resident on server id
// (zero for unknown servers).
func (m *Manager) ClientCount(id int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.servers[id]; ok {
		return len(e.clients)
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
	m.scaleEvents++
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

// Stats snapshots the fleet counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Placements:  m.placements,
		Migrations:  m.migrations,
		ScaleEvents: m.scaleEvents,
	}
	for _, e := range m.servers {
		if e.draining {
			st.Draining++
		} else {
			st.Servers++
		}
	}
	return st
}

// attachLocked records client c on server e. Caller holds m.mu.
func (m *Manager) attachLocked(e *serverEntry, c ClientInfo) {
	e.clients[c.ID] = c.TransientPeakBytes
	e.committed += c.TransientPeakBytes
	m.assign[c.ID] = e.id
}

// detachLocked removes clientID from its server. Caller holds m.mu.
func (m *Manager) detachLocked(clientID string) {
	id, ok := m.assign[clientID]
	if !ok {
		return
	}
	if e, ok := m.servers[id]; ok {
		e.committed -= e.clients[clientID]
		delete(e.clients, clientID)
	}
	delete(m.assign, clientID)
}

// appendLoadsLocked appends a ServerLoad snapshot per server to loads,
// in ID order. Caller holds m.mu.
func (m *Manager) appendLoadsLocked(loads []ServerLoad, includeDraining bool) []ServerLoad {
	for _, id := range m.order {
		e := m.servers[id]
		if e.draining && !includeDraining {
			continue
		}
		var sig Signals
		if e.probe != nil {
			sig = e.probe()
		}
		loads = append(loads, ServerLoad{
			ID:             id,
			Clients:        len(e.clients),
			QueueDepth:     sig.QueueDepth,
			UsedBytes:      sig.UsedBytes,
			Admission:      sig.Admission,
			CommittedBytes: e.committed,
			CapacityBytes:  e.capacity,
			Models:         e.models,
			Draining:       e.draining,
		})
	}
	return loads
}

// activeLocked counts non-draining servers. Caller holds m.mu.
func (m *Manager) activeLocked() int {
	n := 0
	for _, e := range m.servers {
		if !e.draining {
			n++
		}
	}
	return n
}

// imbalanceLocked computes max/mean resident clients over active
// servers. Caller holds m.mu.
func (m *Manager) imbalanceLocked() float64 {
	active, total, maxC := 0, 0, 0
	for _, e := range m.servers {
		if e.draining {
			continue
		}
		active++
		total += len(e.clients)
		if len(e.clients) > maxC {
			maxC = len(e.clients)
		}
	}
	if active == 0 || total == 0 {
		return 0
	}
	mean := float64(total) / float64(active)
	return float64(maxC) / mean
}

// publishLocked refreshes the fleet gauges. Caller holds m.mu.
func (m *Manager) publishLocked() {
	m.mServers.Set(int64(m.activeLocked()))
	m.mImbalance.Set(int64(m.imbalanceLocked() * 1000))
}
