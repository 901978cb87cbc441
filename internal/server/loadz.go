package server

import (
	"net"
	"sync/atomic"

	"menos/internal/fleet"
)

// countingConn counts protocol bytes flowing over a client connection
// so the ledger can attribute wire traffic per tenant. Counters are
// atomics: the serving goroutine reads and writes frames while
// flushWire drains the deltas.
type countingConn struct {
	net.Conn
	tx atomic.Int64
	rx atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// flushWire drains the connection's byte counters into the session's
// ledger row. Called once per message-loop turn and at teardown; the
// first flush after handshake attributes the handshake frames to the
// client too.
func (s *Server) flushWire(sess *session, conn *countingConn) {
	if s.ledger == nil {
		return
	}
	tx := conn.tx.Swap(0)
	rx := conn.rx.Swap(0)
	if tx != 0 || rx != 0 {
		s.ledger.AddWire(sess.id, tx, rx)
	}
}

// LoadSnapshot assembles the /loadz wire document: the same ServerLoad
// shape a fleet Placer consumes, hand-assembled by the simulator and
// here produced by the live serving plane, plus the per-client ledger.
// Wire it to the metrics mux with obs.WithLoadz:
//
//	obs.Handler(reg, tracer, obs.WithLoadz(func() any { return srv.LoadSnapshot() }))
func (s *Server) LoadSnapshot() fleet.LoadSnapshot {
	var committed int64
	s.mu.Lock()
	clients := len(s.sessions)
	for _, sess := range s.sessions {
		committed += sess.committed()
	}
	s.mu.Unlock()
	// UsedBytes mirrors what the simulator reports: device residency
	// (base model and per-owner allocations) plus everything the
	// scheduler currently holds out of its budget (grants in flight and
	// persistent reservations). Parked activation grants are not held in
	// that sense — Available counts them as free, because any request
	// that needs them gets them — so placement sees them as free too.
	load := s.scheduler.Load()
	used := s.device.Used() + (load.Total - load.Available)
	return fleet.LoadSnapshot{
		AtSeconds: s.clock.Now().Seconds(),
		Server: fleet.ServerLoad{
			ID:             s.cfg.ServerID,
			Clients:        clients,
			QueueDepth:     load.QueueDepth,
			UsedBytes:      used,
			Admission:      fleet.AdmissionState(load.Admission),
			CommittedBytes: committed,
			CapacityBytes:  s.device.Capacity(),
			Models:         []string{s.store.Config().Name},
		},
		Clients: s.ledger.Snapshot(),
	}
}
