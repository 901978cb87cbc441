package obs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// ClientUsage is one client's cumulative resource account: the answer
// to "which client is spending what" on a shared server. Byte-seconds
// are the integral of bytes-held over time, split by lifetime class —
// persistent (adapter state pinned across iterations) versus transient
// (per-iteration activation/gradient grants) — which is the
// cost-attribution split the paper's sharing argument rests on.
type ClientUsage struct {
	ID                    string  `json:"id"`
	ComputeSeconds        float64 `json:"compute_seconds"`
	GrantWaitSeconds      float64 `json:"grant_wait_seconds"`
	PersistentByteSeconds float64 `json:"persistent_byte_seconds"`
	TransientByteSeconds  float64 `json:"transient_byte_seconds"`
	PersistentBytes       int64   `json:"persistent_bytes"`
	TransientBytes        int64   `json:"transient_bytes"`
	WireTxBytes           int64   `json:"wire_tx_bytes"`
	WireRxBytes           int64   `json:"wire_rx_bytes"`
	Iterations            int64   `json:"iterations"`
	BatchRows             int64   `json:"batch_rows,omitempty"`
	Sheds                 int64   `json:"sheds"`
	Retries               int64   `json:"retries"`
	Revocations           int64   `json:"revocations"`
}

// LedgerConfig configures a Ledger.
type LedgerConfig struct {
	// Clock supplies the timebase for byte-second accrual. The
	// simulator passes its virtual clock so accounts are deterministic;
	// nil means wall clock.
	Clock Clock
	// MaxClients caps the number of distinct accounts; past it, new
	// clients accrue into a shared VecOverflowLabel account (totals
	// stay exact, attribution degrades). <= 0 means DefaultVecCap.
	MaxClients int
}

// account is one client's mutable ledger state.
type account struct {
	u           ClientUsage
	lastAccrual time.Duration
	// Byte-seconds already pushed into the integer counters, so the
	// exported counters stay monotonic while the float accrual runs.
	pushedPersist int64
	pushedTrans   int64
}

// ledgerMetrics are the labeled families the ledger publishes into a
// Registry. Families that share a name with an unlabeled aggregate
// (compute, wait, iterations) are observed with the exact values the
// aggregate sees, so Σ over {client=*} reproduces it.
type ledgerMetrics struct {
	compute   *HistogramVec
	wait      *HistogramVec
	iters     *CounterVec
	persistBS *CounterVec
	transBS   *CounterVec
	wireTx    *CounterVec
	wireRx    *CounterVec
	sheds     *CounterVec
	batchRows *CounterVec
	revoked   *CounterVec
}

// Ledger is the per-tenant accounting plane: every grant, reservation,
// compute slice, wire transfer and shed is attributed to a client ID
// and accrued into that client's ClientUsage. It is purely
// bookkeeping — it never advances its clock, spawns goroutines, or
// feeds back into scheduling — so enabling it cannot perturb a
// deterministic simulation. All methods are safe on a nil ledger.
type Ledger struct {
	clock Clock
	max   int

	mu       sync.Mutex
	accounts map[string]*account
	m        *ledgerMetrics
}

// NewLedger creates an empty ledger.
func NewLedger(cfg LedgerConfig) *Ledger {
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock()
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = DefaultVecCap
	}
	return &Ledger{
		clock:    cfg.Clock,
		max:      cfg.MaxClients,
		accounts: make(map[string]*account),
	}
}

// Instrument publishes the ledger's accounts as labeled families in
// reg, mirroring every subsequent accrual. Call once, before traffic.
// Safe on nil.
func (l *Ledger) Instrument(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m = &ledgerMetrics{
		compute: reg.HistogramVec(MetricServerComputeSeconds, "client", DurationBuckets(),
			"Per-iteration server compute time (forward+backward), seconds."),
		wait: reg.HistogramVec(MetricSchedWaitSeconds, "client", DurationBuckets(),
			"Queue wait from submission to memory grant, seconds."),
		iters: reg.CounterVec(MetricServerIterations, "client",
			"Completed fine-tuning iterations."),
		persistBS: reg.CounterVec(MetricGPUPersistentByteSeconds, "client",
			"Accrued persistent GPU residency, byte-seconds (integer-truncated)."),
		transBS: reg.CounterVec(MetricGPUTransientByteSeconds, "client",
			"Accrued transient GPU residency, byte-seconds (integer-truncated)."),
		wireTx: reg.CounterVec(MetricServerWireTxBytes, "client",
			"Bytes sent to the client over the split-protocol connection."),
		wireRx: reg.CounterVec(MetricServerWireRxBytes, "client",
			"Bytes received from the client over the split-protocol connection."),
		sheds: reg.CounterVec(MetricServerShedsTotal, "client",
			"Submissions shed by admission control."),
		batchRows: reg.CounterVec(MetricBatchRows, "client",
			"Microbatch rows this client contributed to batched kernel invocations."),
		revoked: reg.CounterVec(MetricSchedRevocations, "client",
			"Parked activation grants revoked because another request needed the memory."),
	}
	// Families share the ledger's account cap so per-metric overflow
	// kicks in at the same cardinality as the accounts themselves.
	l.m.compute.SetCap(l.max)
	l.m.wait.SetCap(l.max)
	l.m.iters.SetCap(l.max)
	l.m.persistBS.SetCap(l.max)
	l.m.transBS.SetCap(l.max)
	l.m.wireTx.SetCap(l.max)
	l.m.wireRx.SetCap(l.max)
	l.m.sheds.SetCap(l.max)
	l.m.batchRows.SetCap(l.max)
	l.m.revoked.SetCap(l.max)
}

// SplitOwner maps a memory-owner tag to the client it bills to and the
// lifetime class of the bytes. The scheduler and device planes tag
// persistent state with the "persist:" (adapter weights, optimizer
// state) and "decode:" (KV reservations) prefixes; everything else is
// a transient per-iteration grant billed to the owner verbatim.
func SplitOwner(owner string) (client string, persistent bool) {
	if c, ok := strings.CutPrefix(owner, "persist:"); ok {
		return c, true
	}
	if c, ok := strings.CutPrefix(owner, "decode:"); ok {
		return c, true
	}
	return owner, false
}

// accountFor returns the account billed for client, creating it on
// first use and overflowing into the shared account past the cap.
// Caller holds l.mu.
func (l *Ledger) accountFor(client string) *account {
	a, ok := l.accounts[client]
	if ok {
		return a
	}
	if client != VecOverflowLabel && len(l.accounts) >= l.max {
		return l.accountFor(VecOverflowLabel)
	}
	a = &account{u: ClientUsage{ID: client}, lastAccrual: l.clock.Now()}
	l.accounts[client] = a
	return a
}

// accrueLocked integrates held bytes over the time since the account's
// last accrual and pushes the integer deltas into the exported
// counters. Caller holds l.mu.
func (l *Ledger) accrueLocked(a *account, now time.Duration) {
	dt := (now - a.lastAccrual).Seconds()
	a.lastAccrual = now
	if dt <= 0 {
		return
	}
	a.u.PersistentByteSeconds += float64(a.u.PersistentBytes) * dt
	a.u.TransientByteSeconds += float64(a.u.TransientBytes) * dt
	if l.m != nil {
		if d := int64(a.u.PersistentByteSeconds) - a.pushedPersist; d > 0 {
			l.m.persistBS.With(a.u.ID).Add(d)
			a.pushedPersist += d
		}
		if d := int64(a.u.TransientByteSeconds) - a.pushedTrans; d > 0 {
			l.m.transBS.With(a.u.ID).Add(d)
			a.pushedTrans += d
		}
	}
}

// Acquire records that owner now holds bytes more GPU memory. Safe on
// nil.
func (l *Ledger) Acquire(owner string, bytes int64) {
	if l == nil || bytes <= 0 {
		return
	}
	client, persistent := SplitOwner(owner)
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accountFor(client)
	l.accrueLocked(a, l.clock.Now())
	if persistent {
		a.u.PersistentBytes += bytes
	} else {
		a.u.TransientBytes += bytes
	}
}

// Release records that owner gave back bytes of GPU memory, accruing
// the byte-seconds held up to now. Safe on nil.
func (l *Ledger) Release(owner string, bytes int64) {
	if l == nil || bytes <= 0 {
		return
	}
	client, persistent := SplitOwner(owner)
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accountFor(client)
	l.accrueLocked(a, l.clock.Now())
	if persistent {
		a.u.PersistentBytes = max(a.u.PersistentBytes-bytes, 0)
	} else {
		a.u.TransientBytes = max(a.u.TransientBytes-bytes, 0)
	}
}

// AddCompute bills seconds of server compute to client, observing the
// labeled compute histogram with the same value the unlabeled
// aggregate sees. Safe on nil.
func (l *Ledger) AddCompute(client string, seconds float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	a := l.accountFor(client)
	a.u.ComputeSeconds += seconds
	m := l.m
	id := a.u.ID
	l.mu.Unlock()
	if m != nil {
		m.compute.With(id).Observe(seconds)
	}
}

// AddGrantWait bills seconds of queue wait (submission → grant) to
// client. Safe on nil.
func (l *Ledger) AddGrantWait(client string, seconds float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	a := l.accountFor(client)
	a.u.GrantWaitSeconds += seconds
	m := l.m
	id := a.u.ID
	l.mu.Unlock()
	if m != nil {
		m.wait.With(id).Observe(seconds)
	}
}

// AddIteration counts one completed iteration for client. Safe on nil.
func (l *Ledger) AddIteration(client string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	a := l.accountFor(client)
	a.u.Iterations++
	m := l.m
	id := a.u.ID
	l.mu.Unlock()
	if m != nil {
		m.iters.With(id).Inc()
	}
}

// AddBatchRows bills rows microbatch rows that client contributed to a
// batched kernel invocation. The labeled family shares its name with
// the batch plane's unlabeled menos_batch_rows_total counter and is
// fed the same per-member values, so Σ over {client=*} reproduces the
// aggregate. Safe on nil.
func (l *Ledger) AddBatchRows(client string, rows int64) {
	if l == nil || rows <= 0 {
		return
	}
	l.mu.Lock()
	a := l.accountFor(client)
	a.u.BatchRows += rows
	m := l.m
	id := a.u.ID
	l.mu.Unlock()
	if m != nil {
		m.batchRows.With(id).Add(rows)
	}
}

// AddWire bills tx/rx wire bytes (server perspective) to client. Safe
// on nil.
func (l *Ledger) AddWire(client string, tx, rx int64) {
	if l == nil || (tx <= 0 && rx <= 0) {
		return
	}
	l.mu.Lock()
	a := l.accountFor(client)
	if tx > 0 {
		a.u.WireTxBytes += tx
	}
	if rx > 0 {
		a.u.WireRxBytes += rx
	}
	m := l.m
	id := a.u.ID
	l.mu.Unlock()
	if m != nil {
		if tx > 0 {
			m.wireTx.With(id).Add(tx)
		}
		if rx > 0 {
			m.wireRx.With(id).Add(rx)
		}
	}
}

// Shed counts one admission-control shed against client. Safe on nil.
func (l *Ledger) Shed(client string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	a := l.accountFor(client)
	a.u.Sheds++
	m := l.m
	id := a.u.ID
	l.mu.Unlock()
	if m != nil {
		m.sheds.With(id).Inc()
	}
}

// Retry counts one post-shed resubmission by client. Safe on nil.
func (l *Ledger) Retry(client string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.accountFor(client).u.Retries++
	l.mu.Unlock()
}

// Revoke counts one parked grant taken back from client because another
// request needed the memory. The labeled family shares its name with the
// scheduler's unlabeled counter, so Σ over {client=*} reproduces it. Safe
// on nil.
func (l *Ledger) Revoke(client string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	a := l.accountFor(client)
	a.u.Revocations++
	m := l.m
	id := a.u.ID
	l.mu.Unlock()
	if m != nil {
		m.revoked.With(id).Inc()
	}
}

// Snapshot accrues every account up to now and returns the usage rows
// sorted by client ID — the per-client section of /loadz. Safe on nil
// (returns an empty, non-nil slice so the JSON field is [] not null).
func (l *Ledger) Snapshot() []ClientUsage {
	out := []ClientUsage{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clock.Now()
	ids := make([]string, 0, len(l.accounts))
	for id := range l.accounts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := l.accounts[id]
		l.accrueLocked(a, now)
		out = append(out, a.u)
	}
	return out
}

// Usage returns one client's current account (accrued to now) and
// whether it exists. Safe on nil.
func (l *Ledger) Usage(client string) (ClientUsage, bool) {
	if l == nil {
		return ClientUsage{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.accounts[client]
	if !ok {
		return ClientUsage{}, false
	}
	l.accrueLocked(a, l.clock.Now())
	return a.u, true
}
