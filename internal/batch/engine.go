// Package batch is the batch-formation engine of docs/BATCHING.md: it
// coalesces compatible iteration requests — same cut point, sequence
// length, phase, and adapter shape — from concurrently served clients
// into one batched kernel invocation over the shared frozen base, with
// per-row adapter dispatch (adapter.MultiLoRALinear).
//
// The package only decides WHO runs together; the caller's executor
// decides what running means (the TCP server stacks activations and
// drives one model pass; tests count items). A group dispatches when it
// reaches the policy's max size, when admitting one more member would
// blow the byte budget, or when its hold expires while still partial —
// the batch-size-vs-latency knob the multilora sweep measures. Those
// decisions are Former's (former.go), which has no clock and starts no
// goroutine; Engine drives it on the wall clock for the TCP server, and
// the simulator (internal/splitsim) drives the same Former in virtual
// time, where goroutine timing would break determinism. Both publish
// through the same Metrics.
package batch

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"menos/internal/sched"
)

// ErrClosed is returned by Join after Close.
var ErrClosed = errors.New("batch: engine closed")

// Key is the compatibility class: only items with equal keys may share
// a batched kernel invocation. Cut and Seq shape the stacked tensor;
// Sig fingerprints the adapter structure (targets, block span) that
// per-row dispatch requires to be common.
type Key struct {
	Cut  int
	Seq  int
	Kind sched.RequestKind
	Sig  string
}

// Item is one client's share of a batch. The caller fills the
// identity, sizing, and Payload fields; the executor fills Result and
// Err for every item it receives.
type Item struct {
	Client  string
	Rows    int   // stacked activation rows this client contributes
	Bytes   int64 // scheduler bytes this client's share needs
	Payload any

	Result any
	Err    error

	done chan struct{}
}

// Exec runs one formed batch. Items arrive in join order (ascending
// row position in the stack); the executor must set Result or Err on
// every item before returning.
type Exec func(key Key, items []*Item)

// Config configures an Engine.
type Config struct {
	// Policy is the formation policy; a disabled policy makes New fail
	// (callers should bypass the engine entirely).
	Policy sched.BatchPolicy
	// Exec runs each formed batch.
	Exec Exec
	// MaxBytes, when non-nil, returns the byte budget one batch may
	// request (typically Scheduler.Schedulable): a join that would push
	// the group past it dispatches the group early and starts a fresh
	// one.
	MaxBytes func() int64
	// Metrics, when non-nil, records dispatched batches.
	Metrics *Metrics
}

// held is what the engine keeps per forming group: when it opened (for
// the hold-time metric) and the wall-clock timer bounding its hold.
type held struct {
	opened time.Time
	timer  *time.Timer
}

type group = Group[*Item, held]

// Engine forms batches from concurrent Join calls: the Former decides,
// the engine supplies the wall clock and the dispatch goroutines.
type Engine struct {
	cfg Config

	mu     sync.Mutex
	former *Former[*Item, held]
	closed bool
}

// New builds an engine. The policy must be enabled and valid.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Policy.Enabled() {
		return nil, errors.New("batch: policy disabled (MaxSize 0)")
	}
	if cfg.Exec == nil {
		return nil, errors.New("batch: no executor")
	}
	cfg.Policy = cfg.Policy.WithDefaults()
	return &Engine{cfg: cfg, former: NewFormer[*Item, held](cfg.Policy.MaxSize)}, nil
}

// Join adds it to the forming group for key and blocks until the
// group's batch has executed; it returns it.Err (the per-item verdict,
// not the call's own failure — a nil return with it.Err set means the
// batch ran and this member's share failed). The calling goroutine is
// the client's serving goroutine: blocking here is what holds the
// client's reply until its batch completes.
func (e *Engine) Join(key Key, it *Item) error {
	if it.Rows <= 0 {
		return fmt.Errorf("batch: item for %q has %d rows", it.Client, it.Rows)
	}
	it.done = make(chan struct{})

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	budget := int64(math.MaxInt64)
	if e.cfg.MaxBytes != nil {
		budget = e.cfg.MaxBytes()
	}
	g, opened, sealed := e.former.Add(key, it, it.Bytes, budget)
	if opened {
		g.State.opened = time.Now()
		g.State.timer = time.AfterFunc(e.cfg.Policy.MaxHold, func() { e.flushExpired(g) })
	}
	e.mu.Unlock()

	if sealed != nil {
		go e.dispatch(sealed)
	}
	<-it.done
	return it.Err
}

// flushExpired dispatches g when its hold timer fires before the group
// sealed any other way.
func (e *Engine) flushExpired(g *group) {
	e.mu.Lock()
	expired := e.former.Seal(g)
	e.mu.Unlock()
	if expired {
		e.dispatch(g)
	}
}

// dispatch runs one sealed group through the executor and releases its
// members. Never called with e.mu held.
func (e *Engine) dispatch(g *group) {
	g.State.timer.Stop()
	hold := time.Since(g.State.opened)
	e.cfg.Exec(g.Key, g.Members)
	members := make([]MemberRows, len(g.Members))
	for i, it := range g.Members {
		members[i] = MemberRows{Client: it.Client, Rows: int64(it.Rows)}
	}
	e.cfg.Metrics.Record(members, hold.Seconds())
	for _, it := range g.Members {
		close(it.done)
	}
}

// Close flushes every forming group and fails future joins.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	pending := e.former.Drain()
	e.mu.Unlock()
	for _, g := range pending {
		e.dispatch(g)
	}
}
