// Package fleet is the control plane for multi-server Menos: it
// decides which server a split fine-tuning client lives on (placement)
// and how many servers exist at all (autoscaling), driven by the same
// telemetry the servers already publish — scheduler queue depth,
// admission state and GPU used/capacity gauges (docs/FLEET.md).
//
// The package is deliberately free of time sources and goroutines: a
// Placer is a pure decision function over observed ServerLoads, the
// Autoscaler is a pure state machine fed explicit clock readings, and
// the Manager's bookkeeping iterates servers in sorted-ID order. The
// same code therefore runs under the deterministic discrete-event
// simulator (internal/splitsim) and a wall-clock deployment, and two
// identical simulated runs make bit-identical fleet decisions.
package fleet

import (
	"errors"
	"fmt"
)

// ErrNoServers is returned by a Placer asked to place onto an empty
// fleet (or one whose every server drains).
var ErrNoServers = errors.New("fleet: no servers available for placement")

// ErrLastServer refuses a drain that would leave no server accepting
// placements. Both Manager.Drain and Controller.Drain return it.
var ErrLastServer = errors.New("fleet: cannot drain the last server that is not draining")

// ClientInfo is what the control plane knows about a client before
// placing it: identity, the base model it needs resident, and the
// memory-model prediction of its footprint (internal/memmodel's
// pricing of §3.3's demands — persistent adapter/optimizer state plus
// the largest transient forward/backward peak).
type ClientInfo struct {
	ID        string
	BaseModel string
	// PersistentBytes is held for the whole session (adapter, gradient
	// and optimizer state plus the serving-process context).
	PersistentBytes int64
	// TransientPeakBytes is the largest single grant the client will
	// request (normally the re-forward+backward peak).
	TransientPeakBytes int64
}

// demandBytes is the footprint a placement must account for.
func (c ClientInfo) demandBytes() int64 {
	return c.PersistentBytes + c.TransientPeakBytes
}

// Signals are what a server reports about itself to its Manager with
// Observe: the live gauges the placement policies react to, plus its
// capacity and resident models. The simulator pushes them whenever they
// change and the Controller on every poll, so a decision reads them
// without asking any server.
type Signals struct {
	// QueueDepth is the number of requests waiting in the scheduler
	// (sched.Scheduler.QueueDepth, /loadz queue_depth).
	QueueDepth int
	// UsedBytes is the device set's allocated bytes (/loadz used_bytes).
	UsedBytes int64
	// Admission is the server's admission-ladder position.
	Admission AdmissionState
	// CapacityBytes and Models (/loadz capacity_bytes and models; the
	// Manager keeps the slice) replace the row's values unless zero.
	CapacityBytes int64
	Models        []string
}

// AdmissionState mirrors sched.AdmissionState ordering (0 open,
// 1 throttled, 2 shedding) without importing the scheduler package, so
// fleet stays a leaf the scheduler could itself depend on later.
type AdmissionState int

// Admission states, ordered by pressure (kept numerically identical to
// internal/sched's ladder).
const (
	AdmissionOpen AdmissionState = iota
	AdmissionThrottled
	AdmissionShedding
)

// ServerLoad is one server's state as seen by a placement decision:
// its last observed Signals plus the Manager's own bookkeeping
// (resident clients, committed transient demand, resident models, drain
// flag).
// The JSON tags define the wire schema of the /loadz endpoint
// (LoadSnapshot); changing them is a breaking change for menos-top and
// any polling controller.
type ServerLoad struct {
	ID int `json:"id"`
	// Clients is the number of resident clients (persistent state on
	// this server).
	Clients int `json:"clients"`
	// QueueDepth, UsedBytes and Admission are the last observed Signals.
	QueueDepth int            `json:"queue_depth"`
	UsedBytes  int64          `json:"used_bytes"`
	Admission  AdmissionState `json:"admission"`
	// CommittedBytes sums the predicted transient peaks of the resident
	// clients — demand that is not visible in UsedBytes between grants
	// but will contend for the scheduler's budget.
	CommittedBytes int64 `json:"committed_bytes"`
	// CapacityBytes is the server's total GPU memory.
	CapacityBytes int64 `json:"capacity_bytes"`
	// Models lists the base models resident on the server.
	Models []string `json:"models"`
	// Draining marks a server being scaled down: it accepts no new
	// placements and its clients migrate away.
	Draining bool `json:"draining,omitempty"`
}

// HasModel reports whether the server already hosts base model name.
func (l ServerLoad) HasModel(name string) bool {
	for _, m := range l.Models {
		if m == name {
			return true
		}
	}
	return false
}

// FreeBytes is the headroom a MemoryBestFit placement packs against:
// capacity minus what is allocated minus what resident clients are
// predicted to demand transiently. It can go negative once the fleet
// is overcommitted (clients then queue on the scheduler).
func (l ServerLoad) FreeBytes() int64 {
	return l.CapacityBytes - l.UsedBytes - l.CommittedBytes
}

// improves is the move rule every rebalance applies: a client moves off a
// draining server unconditionally, and otherwise only when the target
// ends up with fewer clients than the source has now, which damps
// oscillation.
func improves(src, dst ServerLoad) bool {
	return src.Draining || dst.Clients+1 < src.Clients
}

// Placer chooses a server for a client. Implementations must be
// deterministic: same inputs (including internal cursor state), same
// answer. Place returns the chosen ServerLoad.ID. It must neither modify
// nor retain servers (or any slice of it) once it returns: the Manager
// hands over its own rows.
type Placer interface {
	Name() string
	Place(c ClientInfo, servers []ServerLoad) (int, error)
}

// RoundRobin cycles through servers in the order given, ignoring all
// telemetry. With a static fleet listed in ID order it reproduces the
// historical i mod N assignment bit-exactly, which is why it is the
// default: enabling the fleet layer with RoundRobin changes nothing.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a RoundRobin placer with its cursor at the
// first server.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Placer.
func (r *RoundRobin) Name() string { return "round-robin" }

// Place implements Placer.
func (r *RoundRobin) Place(_ ClientInfo, servers []ServerLoad) (int, error) {
	if len(servers) == 0 {
		return 0, ErrNoServers
	}
	id := servers[r.next%len(servers)].ID
	r.next++
	return id, nil
}

// LeastLoaded picks the server with the fewest waiting-plus-resident
// clients (the scheduler's queue depth plus the active-client count),
// breaking ties toward the lowest server ID. It balances headcount but
// is blind to memory, so heterogeneous footprints can still pile onto
// one scheduler.
type LeastLoaded struct{}

// NewLeastLoaded returns the load-based placer.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Placer.
func (l *LeastLoaded) Name() string { return "least-loaded" }

// Place implements Placer.
func (l *LeastLoaded) Place(_ ClientInfo, servers []ServerLoad) (int, error) {
	best := -1
	bestLoad := 0
	for i := range servers {
		s := &servers[i]
		load := s.QueueDepth + s.Clients
		if best < 0 || load < bestLoad || (load == bestLoad && s.ID < best) {
			best = s.ID
			bestLoad = load
		}
	}
	if best < 0 {
		return 0, ErrNoServers
	}
	return best, nil
}

// MemoryBestFit packs the client's predicted footprint (persistent +
// transient peak) against each server's free memory — capacity minus
// the device's used bytes minus already-committed transient demand. Among
// servers where the client fits it prefers those that already host the
// client's base model (sharing-aware residency: co-placed clients
// share one base copy), then the tightest remaining fit, then the
// lowest ID. When no server fits, it falls back to the most headroom,
// overcommitting the scheduler rather than refusing (requests then
// queue, which is the scheduler's job to absorb).
type MemoryBestFit struct{}

// NewMemoryBestFit returns the memory-packing placer.
func NewMemoryBestFit() *MemoryBestFit { return &MemoryBestFit{} }

// Name implements Placer.
func (m *MemoryBestFit) Name() string { return "memory-best-fit" }

// Place implements Placer.
func (m *MemoryBestFit) Place(c ClientInfo, servers []ServerLoad) (int, error) {
	if len(servers) == 0 {
		return 0, ErrNoServers
	}
	need := c.demandBytes()
	best := -1
	bestShared := false
	var bestLeft int64
	for _, s := range servers {
		left := s.FreeBytes() - need
		if left < 0 {
			continue
		}
		shared := c.BaseModel != "" && s.HasModel(c.BaseModel)
		switch {
		case best < 0,
			shared && !bestShared,
			shared == bestShared && left < bestLeft,
			shared == bestShared && left == bestLeft && s.ID < best:
			best = s.ID
			bestShared = shared
			bestLeft = left
		}
	}
	if best >= 0 {
		return best, nil
	}
	// Nothing fits: overcommit the server with the most headroom (the
	// least-bad choice, and the one that equalizes committed demand).
	var bestFree int64
	for _, s := range servers {
		if free := s.FreeBytes(); best < 0 || free > bestFree || (free == bestFree && s.ID < best) {
			best = s.ID
			bestFree = free
		}
	}
	return best, nil
}

// PlacerByName builds a fresh placer from its Name() string — the
// inverse used by CLI flags and experiment tables.
func PlacerByName(name string) (Placer, error) {
	switch name {
	case "round-robin":
		return NewRoundRobin(), nil
	case "least-loaded":
		return NewLeastLoaded(), nil
	case "memory-best-fit":
		return NewMemoryBestFit(), nil
	case "policy":
		return NewPolicyPlacer(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown placer %q", name)
	}
}
