// Controller is the polling control plane behind menos-fleetd: it
// scrapes N real servers' /healthz and /loadz endpoints into the same
// ServerLoad rows a Placer consumes, hands arriving clients a server
// (redirect placement), and drives live migrations through the
// servers' admin plane. It is the wall-clock counterpart of Manager:
// where Manager owns authoritative bookkeeping inside one process,
// the Controller treats the servers themselves as the source of truth
// and rebuilds its world every PollOnce.
//
// Like the rest of the package, the Controller has no goroutines and
// no time source: PollOnce and RebalanceOnce are explicit ticks the
// daemon (or a test) calls, so the decision sequence is replayable.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"menos/internal/obs"
	"menos/internal/split"
	"menos/internal/tsdb"
)

// Endpoint names one server the Controller manages.
type Endpoint struct {
	// ID is the fleet identity the server was started with
	// (-server-id); /healthz must echo it back.
	ID int `json:"id"`
	// Addr is the split-protocol address clients dial.
	Addr string `json:"addr"`
	// MetricsURL is the base URL serving /healthz and /loadz.
	MetricsURL string `json:"metrics_url"`
	// AdminURL is the base URL serving /admin/*.
	AdminURL string `json:"admin_url"`
}

// ControllerConfig configures a Controller.
type ControllerConfig struct {
	Endpoints []Endpoint
	// Placer decides placements; nil means NewPolicyPlacer().
	Placer Placer
	// Metrics receives the menos_fleetd_* families (nil-safe).
	Metrics *obs.Registry
	// TokenSeed randomizes resume tokens so a restarted fleetd does
	// not mint tokens colliding with snapshots staged by its previous
	// life. Zero means 1.
	TokenSeed uint64
	// Store, when set, turns every PollOnce into a federation tick:
	// the Controller scrapes each healthy endpoint's /metrics.json and
	// appends the flattened samples (plus synthetic menos_fleetd_up /
	// menos_fleetd_identity_mismatch series) into the store, labeled by
	// server: the full gauge history behind each /loadz row. The alert
	// engine and /queryz read from here.
	Store *tsdb.Store
	// Clock stamps scraped samples and down-time accounting. Nil means
	// wall clock; tests inject a virtual clock for determinism.
	Clock obs.Clock
	// FederateTraces additionally pages each healthy endpoint's
	// /trace?since=<cursor> every poll and re-records the spans into a
	// per-server mirror tracer, so WriteMergedTrace can render one
	// fleet-wide Chrome trace with migrated clients' iteration spans
	// stitched across processes by trace ID.
	FederateTraces bool
	// TraceBudgetBytes bounds each per-server mirror ring (<= 0 means
	// DefaultTraceBudgetBytes).
	TraceBudgetBytes int64
	// Logf receives orchestration logs (nil discards).
	Logf func(format string, args ...any)
}

// DefaultTraceBudgetBytes bounds one server's trace mirror when the
// config does not (4 MiB — half a server's own default ring, times N
// servers fleetd-side).
const DefaultTraceBudgetBytes = 4 << 20

// endpointState is the Controller's last observation of one server.
type endpointState struct {
	ep           Endpoint
	polled       bool
	healthy      bool
	lastErr      string
	reportedID   int
	reportedAddr string
	atSeconds    float64
	load         ServerLoad
	clients      []obs.ClientUsage
	draining     bool

	// Down-time accounting (federation clock): the instant of the last
	// successful poll, so /fleetz can report how long a DOWN server has
	// been unreachable.
	lastOK time.Duration
	haveOK bool

	// Trace federation: the resume cursor into the server's span ring
	// and the fleetd-side mirror its spans are re-recorded into.
	traceCursor uint64
	mirror      *obs.Tracer
}

// maxMovesPerTick caps the migration orders one RebalanceOnce call may
// issue: enough to drain a small server in one tick without stampeding
// the fleet before the next poll confirms the moves landed.
const maxMovesPerTick = 4

// Controller polls a fixed set of server endpoints and makes
// placement and migration decisions over what it saw.
type Controller struct {
	placer      Placer
	http        *http.Client
	logf        func(string, ...any)
	store       *tsdb.Store
	clock       obs.Clock
	fedTraces   bool
	traceBudget int64

	mu        sync.Mutex
	eps       map[int]*endpointState
	order     []int
	nextToken uint64

	mMigrations *obs.Counter
	mIdentity   *obs.Counter

	// Federation self-observability (nil-safe when unregistered).
	mScrapes      *obs.Counter
	mScrapeErrors *obs.Counter
	mFedSpans     *obs.Counter
	gSeries       *obs.Gauge
}

// NewController builds a Controller. Endpoint IDs must be unique.
func NewController(cfg ControllerConfig) (*Controller, error) {
	c := &Controller{
		placer:      cfg.Placer,
		http:        &http.Client{Timeout: 5 * time.Second},
		logf:        cfg.Logf,
		store:       cfg.Store,
		clock:       cfg.Clock,
		fedTraces:   cfg.FederateTraces,
		traceBudget: cfg.TraceBudgetBytes,
		eps:         make(map[int]*endpointState, len(cfg.Endpoints)),
		nextToken:   cfg.TokenSeed,
	}
	if c.clock == nil {
		c.clock = obs.NewWallClock()
	}
	if c.traceBudget <= 0 {
		c.traceBudget = DefaultTraceBudgetBytes
	}
	if c.placer == nil {
		c.placer = NewPolicyPlacer()
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if c.nextToken == 0 {
		c.nextToken = 1
	}
	for _, ep := range cfg.Endpoints {
		if _, dup := c.eps[ep.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate endpoint ID %d", ep.ID)
		}
		c.eps[ep.ID] = &endpointState{ep: ep}
		c.order = append(c.order, ep.ID)
	}
	sort.Ints(c.order)
	if reg := cfg.Metrics; reg != nil {
		c.mMigrations = reg.Counter(obs.MetricFleetdMigrations, "live migrations ordered successfully")
		c.mIdentity = reg.Counter(obs.MetricFleetdIdentityMismatch, "polls answered by a server other than the configured identity")
		if c.store != nil {
			c.mScrapes = reg.Counter(obs.MetricFleetdScrapes, "successful /metrics.json scrapes")
			c.mScrapeErrors = reg.Counter(obs.MetricFleetdScrapeErrors, "failed /metrics.json or /trace scrapes of otherwise-healthy servers")
			c.gSeries = reg.Gauge(obs.MetricFleetdTSDBSeries, "live series in the federated time-series store")
		}
		if c.fedTraces {
			c.mFedSpans = reg.Counter(obs.MetricFleetdTraceSpansFederated, "spans pulled from server /trace pages into the fleet mirror")
		}
	}
	return c, nil
}

// healthzDoc is the subset of the /healthz body the Controller reads.
type healthzDoc struct {
	Status   string `json:"status"`
	ServerID *int   `json:"server_id"`
	Addr     string `json:"addr"`
}

// PollOnce scrapes every endpoint's /healthz and /loadz, in ID order.
// A server is healthy when both answer and /healthz echoes the
// configured identity; anything else marks it unhealthy until the
// next poll (placements and migrations skip unhealthy servers). It
// returns the number of healthy endpoints.
func (c *Controller) PollOnce() int {
	healthy := 0
	for _, id := range c.order {
		c.mu.Lock()
		st := c.eps[id]
		ep := st.ep
		c.mu.Unlock()

		ok, errStr, h, snap := c.pollEndpoint(ep)
		now := c.clock.Now()

		c.mu.Lock()
		st.polled = true
		st.healthy = ok
		st.lastErr = errStr
		if h != nil {
			if h.ServerID != nil {
				st.reportedID = *h.ServerID
			}
			st.reportedAddr = h.Addr
		}
		if snap != nil {
			st.atSeconds = snap.AtSeconds
			st.load = snap.Server
			st.load.ID = ep.ID
			st.load.Draining = st.draining
			st.clients = snap.Clients
		}
		if ok {
			healthy++
			st.lastOK = now
			st.haveOK = true
		}
		c.mu.Unlock()
		if !ok {
			c.logf("poll server %d (%s): %s", ep.ID, ep.MetricsURL, errStr)
		}
		// Federation: synthetic liveness series every tick, a full
		// /metrics.json scrape and a /trace page for healthy servers.
		mismatch := h != nil && h.Status == "ok" && (h.ServerID == nil || *h.ServerID != ep.ID)
		if c.store != nil {
			c.ingestPoll(ep, ok, mismatch, now)
		}
		if ok && c.fedTraces {
			c.scrapeTrace(st, ep)
		}
	}
	if c.store != nil {
		n, _, _ := c.store.Stats()
		c.gSeries.Set(int64(n)) // nil-safe
	}
	return healthy
}

// pollEndpoint fetches one server's health and load documents.
func (c *Controller) pollEndpoint(ep Endpoint) (ok bool, errStr string, h *healthzDoc, snap *LoadSnapshot) {
	h = &healthzDoc{}
	if err := c.getJSON(ep.MetricsURL+"/healthz", h); err != nil {
		return false, "healthz: " + err.Error(), nil, nil
	}
	if h.Status != "ok" {
		return false, "healthz status " + h.Status, h, nil
	}
	if h.ServerID == nil || *h.ServerID != ep.ID {
		got := "absent"
		if h.ServerID != nil {
			got = fmt.Sprint(*h.ServerID)
		}
		c.mIdentity.Inc()
		return false, fmt.Sprintf("identity mismatch: configured server %d, endpoint reports %s", ep.ID, got), h, nil
	}
	snap = &LoadSnapshot{}
	if err := c.getJSON(ep.MetricsURL+"/loadz", snap); err != nil {
		return false, "loadz: " + err.Error(), h, nil
	}
	return true, "", h, snap
}

func (c *Controller) getJSON(url string, into any) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(into)
}

// Loads returns the last-polled ServerLoad rows of healthy endpoints,
// in ID order — the candidate set for placement.
func (c *Controller) Loads() []ServerLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	loads := make([]ServerLoad, 0, len(c.order))
	for _, id := range c.order {
		if st := c.eps[id]; st.healthy {
			loads = append(loads, st.load)
		}
	}
	return loads
}

// PlaceClient picks a healthy server that is not draining for an
// arriving client and returns its endpoint — the address the client
// should dial. The decision is advisory (the Controller keeps no
// assignment table); the chosen server's own /loadz reflects the
// placement once the client connects, closing the loop at the next
// poll. Decisions are serialized, so a stateful Placer is safe under
// concurrent callers.
func (c *Controller) PlaceClient(ci ClientInfo) (Endpoint, error) {
	loads := c.Loads()
	c.mu.Lock()
	id, err := c.placer.Place(ci, candidates(loads[:0], loads))
	st, ok := c.eps[id]
	c.mu.Unlock()
	if err != nil {
		return Endpoint{}, err
	}
	if !ok {
		return Endpoint{}, fmt.Errorf("fleet: placer %s chose unknown server %d", c.placer.Name(), id)
	}
	c.logf("placed client %q on server %d (%s)", ci.ID, id, st.ep.Addr)
	return st.ep, nil
}

// Drain marks an endpoint as draining: it stops being a placement
// candidate and RebalanceOnce evacuates its clients. Drain is fleetd
// intent, not server state — the server keeps serving until its
// clients have been migrated away — so a server that is down still
// counts as not draining, and draining the last such server returns
// ErrLastServer.
func (c *Controller) Drain(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.eps[id]
	if !ok {
		return fmt.Errorf("fleet: drain: unknown server %d", id)
	}
	if st.draining {
		return nil
	}
	active := 0
	for _, o := range c.eps {
		if !o.draining {
			active++
		}
	}
	if active <= 1 {
		return fmt.Errorf("%w (server %d)", ErrLastServer, id)
	}
	st.draining = true
	st.load.Draining = true
	c.logf("server %d marked draining", id)
	return nil
}

// MigrateClient orders the live migration of clientID from server src
// to server dst: it mints a resume token and POSTs a MigrateOrder to
// src's admin plane. The servers execute the actual transfer at the
// client's next iteration boundary.
func (c *Controller) MigrateClient(clientID string, src, dst int) error {
	c.mu.Lock()
	srcSt, okSrc := c.eps[src]
	dstSt, okDst := c.eps[dst]
	token := c.nextToken
	c.nextToken++
	c.mu.Unlock()
	if !okSrc || !okDst {
		return fmt.Errorf("fleet: migrate %q: unknown server pair %d -> %d", clientID, src, dst)
	}
	ord, err := json.Marshal(MigrateOrder{
		ClientID:    clientID,
		TargetAddr:  dstSt.ep.Addr,
		TargetAdmin: dstSt.ep.AdminURL,
		Token:       token,
	})
	if err != nil {
		return err
	}
	resp, err := c.http.Post(strings.TrimRight(srcSt.ep.AdminURL, "/")+"/admin/migrate",
		"application/json", bytes.NewReader(ord))
	if err != nil {
		return fmt.Errorf("fleet: migrate %q: %w", clientID, err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("fleet: migrate %q: server %d said %s: %s",
			clientID, src, resp.Status, strings.TrimSpace(string(body)))
	}
	c.mMigrations.Inc()
	c.logf("ordered migration of %q: server %d -> %d (token %d)", clientID, src, dst, token)
	return nil
}

// RebalanceOnce makes up to maxMovesPerTick migration decisions over
// the last poll. Each decision evacuates a client from a draining
// server, or moves one client from the most to the least crowded
// server when the move improves the fleet (the rule Manager.Rebalance
// applies too). Between decisions the controller updates its own
// pending counts — the orders it just issued have not landed in any
// /loadz yet — and re-evaluates, so one tick can drain a whole server
// without flooding a single target. Only clients that negotiated the
// migration feature are candidates. It returns the number of orders
// issued; on error, the orders issued before the failure stand.
func (c *Controller) RebalanceOnce() (int, error) {
	// Local working copy of the healthy fleet: client counts here
	// include the moves ordered this tick, which no poll has seen yet.
	c.mu.Lock()
	rows := make([]ServerLoad, 0, len(c.order))
	for _, id := range c.order {
		if st := c.eps[id]; st.healthy {
			rows = append(rows, ServerLoad{ID: id, Clients: st.load.Clients, Draining: st.draining})
		}
	}
	c.mu.Unlock()

	moves := 0
	// exhausted marks sources whose session list held no further
	// migratable client this tick; sessions and ordered keep one fetch
	// per source honest across multiple moves.
	exhausted := make(map[int]bool)
	sessCache := make(map[int][]SessionInfo)
	ordered := make(map[string]bool)
	for moves < maxMovesPerTick {
		var src, dst *ServerLoad
		for i := range rows {
			n := &rows[i]
			if n.Draining {
				if n.Clients > 0 && !exhausted[n.ID] && src == nil {
					src = n
				}
				continue
			}
			if n.Clients > 0 && !exhausted[n.ID] &&
				(src == nil || (!src.Draining && n.Clients > src.Clients)) {
				src = n
			}
			if dst == nil || n.Clients < dst.Clients {
				dst = n
			}
		}
		if src == nil || dst == nil || src.ID == dst.ID || !improves(*src, *dst) {
			break
		}

		sessions, ok := sessCache[src.ID]
		if !ok {
			// eps and each ep are fixed at construction.
			admin := c.eps[src.ID].ep.AdminURL
			if err := c.getJSON(strings.TrimRight(admin, "/")+"/admin/sessions", &sessions); err != nil {
				return moves, fmt.Errorf("fleet: rebalance: sessions of server %d: %w", src.ID, err)
			}
			// Lowest client ID first — deterministic given the same
			// polled state.
			sort.Slice(sessions, func(i, j int) bool { return sessions[i].ClientID < sessions[j].ClientID })
			sessCache[src.ID] = sessions
		}
		pick := ""
		for _, s := range sessions {
			if s.Migrating || ordered[s.ClientID] || s.Features&split.FeatureMigration == 0 {
				continue
			}
			pick = s.ClientID
			break
		}
		if pick == "" {
			exhausted[src.ID] = true
			continue
		}
		if err := c.MigrateClient(pick, src.ID, dst.ID); err != nil {
			return moves, err
		}
		ordered[pick] = true
		src.Clients--
		dst.Clients++
		moves++
	}
	return moves, nil
}

// FleetServer is one server's row in a FleetSnapshot.
type FleetServer struct {
	Endpoint     Endpoint `json:"endpoint"`
	Polled       bool     `json:"polled"`
	Healthy      bool     `json:"healthy"`
	Error        string   `json:"error,omitempty"`
	ReportedID   int      `json:"reported_id"`
	ReportedAddr string   `json:"reported_addr,omitempty"`
	Draining     bool     `json:"draining,omitempty"`
	AtSeconds    float64  `json:"at_seconds"`
	// DownForSeconds is how long an unhealthy server has failed its
	// polls, measured from its last successful one (0 while healthy, or
	// when it has never answered since fleetd started).
	DownForSeconds float64           `json:"down_for_seconds,omitempty"`
	Load           ServerLoad        `json:"load"`
	Clients        []obs.ClientUsage `json:"clients,omitempty"`
}

// FleetSnapshot is the document menos-fleetd serves at /fleetz: the
// whole fleet as the controller last saw it. menos-top -fleetd renders
// it; the JSON tags are its wire schema.
type FleetSnapshot struct {
	Policy  string        `json:"policy"`
	Servers []FleetServer `json:"servers"`
}

// Snapshot assembles the /fleetz document.
func (c *Controller) Snapshot() FleetSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := FleetSnapshot{Policy: c.placer.Name()}
	now := c.clock.Now()
	for _, id := range c.order {
		st := c.eps[id]
		row := FleetServer{
			Endpoint:     st.ep,
			Polled:       st.polled,
			Healthy:      st.healthy,
			Error:        st.lastErr,
			ReportedID:   st.reportedID,
			ReportedAddr: st.reportedAddr,
			Draining:     st.draining,
			AtSeconds:    st.atSeconds,
			Load:         st.load,
			Clients:      st.clients,
		}
		if st.polled && !st.healthy && st.haveOK {
			row.DownForSeconds = (now - st.lastOK).Seconds()
		}
		snap.Servers = append(snap.Servers, row)
	}
	return snap
}
