package obs

import (
	"sort"
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
	// Metrics holds the ledger's labeled families, so its rows and the
	// registry's {client} series are one store; nil means a private one.
	Metrics *Registry
}

// account is what the ledger keeps for a client beyond its families:
// the bytes held now, their byte-second integrals with the integer part
// already pushed into the exported counters (so those stay monotonic
// while the float accrual runs), and the retries, which no family
// counts. Every other ClientUsage field is read from the families.
type account struct {
	id                    string
	persistentBytes       int64
	transientBytes        int64
	persistentByteSeconds float64
	transientByteSeconds  float64
	pushedPersist         int64
	pushedTrans           int64
	lastAccrual           time.Duration
	retries               int64
}

// ledgerMetrics are the labeled families that hold the ledger's counts,
// one series per account. Families that share a name with an unlabeled
// aggregate (compute, wait, iterations, batch rows, revocations) are
// observed with the exact values the aggregate sees, so Σ over
// {client=*} reproduces it.
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

// newLedgerMetrics registers the ledger's families in reg for a ledger
// of maxClients accounts.
func newLedgerMetrics(reg *Registry, maxClients int) *ledgerMetrics {
	m := &ledgerMetrics{
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
	// The ledger routes clients past its cap to the overflow account
	// itself, so each family needs one series per account: maxClients
	// plus the overflow's. A family never overflows on its own.
	for _, f := range []interface{ SetCap(int) }{m.compute, m.wait, m.iters, m.persistBS,
		m.transBS, m.wireTx, m.wireRx, m.sheds, m.batchRows, m.revoked} {
		f.SetCap(maxClients + 1)
	}
	return m
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
	// m holds every count, in LedgerConfig.Metrics.
	m *ledgerMetrics
}

// NewLedger creates an empty ledger.
func NewLedger(cfg LedgerConfig) *Ledger {
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock()
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = DefaultVecCap
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewRegistry()
	}
	return &Ledger{
		clock:    cfg.Clock,
		max:      cfg.MaxClients,
		accounts: make(map[string]*account),
		m:        newLedgerMetrics(cfg.Metrics, cfg.MaxClients),
	}
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
	a = &account{id: client, lastAccrual: l.clock.Now()}
	l.accounts[client] = a
	return a
}

// bill returns the account ID client's counts go to.
func (l *Ledger) bill(client string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accountFor(client).id
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
	a.persistentByteSeconds += float64(a.persistentBytes) * dt
	a.transientByteSeconds += float64(a.transientBytes) * dt
	if d := int64(a.persistentByteSeconds) - a.pushedPersist; d > 0 {
		l.m.persistBS.With(a.id).Add(d)
		a.pushedPersist += d
	}
	if d := int64(a.transientByteSeconds) - a.pushedTrans; d > 0 {
		l.m.transBS.With(a.id).Add(d)
		a.pushedTrans += d
	}
}

// Hold changes the bytes client holds by delta (negative gives them
// back, floored at zero), persistent (its reserved adapter and optimizer
// state) or transient (a grant), accruing byte-seconds first. Safe on nil.
func (l *Ledger) Hold(client string, persistent bool, delta int64) {
	if l == nil || delta == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accountFor(client)
	l.accrueLocked(a, l.clock.Now())
	held := &a.transientBytes
	if persistent {
		held = &a.persistentBytes
	}
	*held = max(*held+delta, 0)
}

// AddCompute bills seconds of server compute to client, observing the
// labeled compute histogram with the same value the unlabeled
// aggregate sees. Safe on nil.
func (l *Ledger) AddCompute(client string, seconds float64) {
	if l == nil {
		return
	}
	l.m.compute.With(l.bill(client)).Observe(seconds)
}

// AddGrantWait bills seconds of queue wait (submission → grant) to
// client. Safe on nil.
func (l *Ledger) AddGrantWait(client string, seconds float64) {
	if l == nil {
		return
	}
	l.m.wait.With(l.bill(client)).Observe(seconds)
}

// AddIteration counts one completed iteration for client. Safe on nil.
func (l *Ledger) AddIteration(client string) {
	if l == nil {
		return
	}
	l.m.iters.With(l.bill(client)).Inc()
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
	l.m.batchRows.With(l.bill(client)).Add(rows)
}

// AddWire bills tx/rx wire bytes (server perspective) to client. Safe
// on nil.
func (l *Ledger) AddWire(client string, tx, rx int64) {
	if l == nil || (tx <= 0 && rx <= 0) {
		return
	}
	id := l.bill(client)
	if tx > 0 {
		l.m.wireTx.With(id).Add(tx)
	}
	if rx > 0 {
		l.m.wireRx.With(id).Add(rx)
	}
}

// Shed counts one admission-control shed against client. Safe on nil.
func (l *Ledger) Shed(client string) {
	if l == nil {
		return
	}
	l.m.sheds.With(l.bill(client)).Inc()
}

// Retry counts one post-shed resubmission by client. Safe on nil.
func (l *Ledger) Retry(client string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.accountFor(client).retries++
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
	l.m.revoked.With(l.bill(client)).Inc()
}

// rowLocked accrues a to now and returns its row: the account's own
// holdings and retries, every count read from its family series. Caller
// holds l.mu.
func (l *Ledger) rowLocked(a *account, now time.Duration) ClientUsage {
	l.accrueLocked(a, now)
	count := func(cv *CounterVec) int64 {
		c, _ := cv.Get(a.id)
		return c.Value()
	}
	sum := func(hv *HistogramVec) float64 {
		h, _ := hv.Get(a.id)
		return h.Sum()
	}
	return ClientUsage{
		ID:                    a.id,
		ComputeSeconds:        sum(l.m.compute),
		GrantWaitSeconds:      sum(l.m.wait),
		PersistentByteSeconds: a.persistentByteSeconds,
		TransientByteSeconds:  a.transientByteSeconds,
		PersistentBytes:       a.persistentBytes,
		TransientBytes:        a.transientBytes,
		WireTxBytes:           count(l.m.wireTx),
		WireRxBytes:           count(l.m.wireRx),
		Iterations:            count(l.m.iters),
		BatchRows:             count(l.m.batchRows),
		Sheds:                 count(l.m.sheds),
		Retries:               a.retries,
		Revocations:           count(l.m.revoked),
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
		out = append(out, l.rowLocked(l.accounts[id], now))
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
	return l.rowLocked(a, l.clock.Now()), true
}
