// Controller is the polling control plane behind menos-fleetd: a
// Manager fed by polls of N real servers, which makes every placement,
// drain and rebalance decision. The Controller adds what a Manager
// cannot do: HTTP polls, health and identity, trace federation and
// migration orders. The servers stay the source of
// truth: each poll replaces a server's residents with what it reports.
//
// Like the rest of the package, the Controller has no goroutines and
// no time source: PollOnce and RebalanceOnce are explicit ticks the
// daemon (or a test) calls, so the decision sequence is replayable.
package fleet

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"menos/internal/obs"
	"menos/internal/split"
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

	// clock stamps down-time accounting and the trace mirrors; nil
	// means wall clock. Tests set a virtual one for determinism.
	clock obs.Clock
}

// DefaultTraceBudgetBytes bounds one server's trace mirror when the
// config does not (4 MiB — half a server's own default ring, times N
// servers fleetd-side).
const DefaultTraceBudgetBytes = 4 << 20

// endpointState is what the Controller keeps of one server beside its
// Manager row.
type endpointState struct {
	ep           Endpoint
	polled       bool
	lastErr      string
	reportedID   int
	reportedAddr string
	atSeconds    float64
	clients      []obs.ClientUsage
	sessions     []SessionInfo // client IDs ascending

	// Down-time accounting (the Controller's clock): the instant of the last
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

// Controller polls a fixed set of server endpoints into its Manager and
// turns the Manager's decisions into redirects and migration orders.
type Controller struct {
	m           *Manager
	http        *http.Client
	logf        func(string, ...any)
	clock       obs.Clock
	fedTraces   bool
	traceBudget int64

	mu        sync.Mutex
	eps       map[int]*endpointState
	order     []int
	nextToken uint64

	mMigrations *obs.Counter
	mIdentity   *obs.Counter

	// Trace federation self-observability (nil-safe when unregistered).
	mScrapeErrors *obs.Counter
	mFedSpans     *obs.Counter
}

// NewController builds a Controller. Endpoint IDs must be unique.
func NewController(cfg ControllerConfig) (*Controller, error) {
	placer := cfg.Placer
	if placer == nil {
		placer = NewPolicyPlacer()
	}
	c := &Controller{
		m:           NewManager(placer),
		http:        &http.Client{Timeout: 5 * time.Second},
		logf:        cfg.Logf,
		clock:       cfg.clock,
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
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if c.nextToken == 0 {
		c.nextToken = 1
	}
	for _, ep := range cfg.Endpoints {
		if err := c.m.AddServer(ep.ID, 0, nil); err != nil {
			return nil, fmt.Errorf("fleet: duplicate endpoint ID %d", ep.ID)
		}
		c.m.setPolled(ep.ID, false, nil) // down until a good poll
		c.eps[ep.ID] = &endpointState{ep: ep}
		c.order = append(c.order, ep.ID)
	}
	sort.Ints(c.order)
	if reg := cfg.Metrics; reg != nil {
		c.mMigrations = reg.Counter(obs.MetricFleetdMigrations, "live migrations ordered successfully")
		c.mIdentity = reg.Counter(obs.MetricFleetdIdentityMismatch, "polls answered by a server other than the configured identity")
		if c.fedTraces {
			c.mScrapeErrors = reg.Counter(obs.MetricFleetdScrapeErrors, "failed /trace scrapes")
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

// PollOnce scrapes every endpoint's /healthz, /loadz and
// /admin/sessions, in ID order. A server is healthy when all three
// answer and /healthz echoes the configured identity: Observe records
// its /loadz row and its sessions become its residents. Anything else
// marks it down until the next good poll. It returns the number of
// healthy endpoints.
func (c *Controller) PollOnce() int {
	healthy := 0
	for _, id := range c.order {
		st := c.eps[id] // eps and each ep are fixed at construction
		ep := st.ep
		h, snap, sessions, err := c.pollEndpoint(ep)
		ok := err == nil
		now := c.clock.Now()
		if ok {
			l := snap.Server
			c.m.Observe(ep.ID, Signals{QueueDepth: l.QueueDepth, UsedBytes: l.UsedBytes, Admission: l.Admission,
				CapacityBytes: l.CapacityBytes, Models: l.Models})
		}
		c.m.setPolled(ep.ID, ok, sessions)

		c.mu.Lock()
		st.polled, st.lastErr = true, ""
		if h != nil {
			if h.ServerID != nil {
				st.reportedID = *h.ServerID
			}
			st.reportedAddr = h.Addr
		}
		if ok {
			healthy++
			st.atSeconds = snap.AtSeconds
			st.clients = snap.Clients
			st.sessions = sessions
			st.lastOK = now
			st.haveOK = true
		} else {
			st.lastErr = err.Error()
		}
		c.mu.Unlock()
		if !ok {
			c.logf("poll server %d (%s): %v", ep.ID, ep.MetricsURL, err)
		}
		if ok && c.fedTraces {
			c.scrapeTrace(st, ep)
		}
	}
	return healthy
}

// pollEndpoint fetches one server's health, load and session documents,
// the sessions sorted by client ID. h is set whenever /healthz answered.
func (c *Controller) pollEndpoint(ep Endpoint) (h *healthzDoc, snap *LoadSnapshot, sessions []SessionInfo, err error) {
	h = &healthzDoc{}
	if err := c.getJSON(ep.MetricsURL+"/healthz", h); err != nil {
		return nil, nil, nil, fmt.Errorf("healthz: %w", err)
	}
	if h.Status != "ok" {
		return h, nil, nil, fmt.Errorf("healthz status %s", h.Status)
	}
	if h.ServerID == nil || *h.ServerID != ep.ID {
		got := "absent"
		if h.ServerID != nil {
			got = fmt.Sprint(*h.ServerID)
		}
		c.mIdentity.Inc()
		return h, nil, nil, fmt.Errorf("identity mismatch: configured server %d, endpoint reports %s", ep.ID, got)
	}
	snap = &LoadSnapshot{}
	if err := c.getJSON(ep.MetricsURL+"/loadz", snap); err != nil {
		return h, nil, nil, fmt.Errorf("loadz: %w", err)
	}
	if err := c.getJSON(strings.TrimRight(ep.AdminURL, "/")+"/admin/sessions", &sessions); err != nil {
		return h, nil, nil, fmt.Errorf("sessions: %w", err)
	}
	slices.SortFunc(sessions, func(a, b SessionInfo) int { return strings.Compare(a.ClientID, b.ClientID) })
	return h, snap, sessions, nil
}

func (c *Controller) getJSON(url string, into any) error {
	return c.get(url, 8<<20, func(r io.Reader) error { return json.NewDecoder(r).Decode(into) })
}

// get fetches url and hands read at most limit bytes of a 200 body.
func (c *Controller) get(url string, limit int64, read func(io.Reader) error) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return read(io.LimitReader(resp.Body, limit))
}

// Loads returns the Manager's rows of healthy endpoints, in ID order.
func (c *Controller) Loads() []ServerLoad {
	return slices.DeleteFunc(c.m.Loads(), func(r ServerLoad) bool { return c.m.isDown(r.ID) })
}

// PlaceClient places an arriving client with the Manager and returns
// the endpoint it should dial. The placement counts against later
// decisions until that server's next poll. A retry for a client that
// already has a server answers that server.
func (c *Controller) PlaceClient(ci ClientInfo) (Endpoint, error) {
	id, err := c.m.Place(ci)
	if err != nil && !errors.Is(err, errPlaced) {
		return Endpoint{}, err
	}
	ep := c.eps[id].ep // eps is fixed at construction, one per Manager row
	c.logf("placed client %q on server %d (%s)", ci.ID, id, ep.Addr)
	return ep, nil
}

// Drain marks an endpoint as draining with the Manager: it stops being
// a placement candidate and RebalanceOnce evacuates its clients. A
// server that is down still counts as not draining, so draining the
// last such server returns ErrLastServer.
func (c *Controller) Drain(id int) error {
	if err := c.m.Drain(id); err != nil {
		return err
	}
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

// RebalanceOnce asks Manager.Rebalance about each migratable session
// of a healthy server — draining servers first, then the most crowded,
// client IDs ascending — and orders a live migration for every move, up
// to maxMovesPerTick. A session the Manager moved since the last poll
// is skipped. It returns the number of orders issued; on error, the
// orders issued before the failure stand and the failed move is undone
// in the Manager.
func (c *Controller) RebalanceOnce() (int, error) {
	rows := c.Loads()
	slices.SortStableFunc(rows, func(a, b ServerLoad) int {
		if a.Draining != b.Draining {
			if a.Draining {
				return -1
			}
			return 1
		}
		return cmp.Compare(b.Clients, a.Clients)
	})
	moves := 0
	for _, row := range rows {
		ci := ClientInfo{}
		if len(row.Models) == 1 { // a server serves one base model
			ci.BaseModel = row.Models[0]
		}
		c.mu.Lock()
		sessions := c.eps[row.ID].sessions
		c.mu.Unlock()
		for _, s := range sessions {
			if moves == maxMovesPerTick {
				return moves, nil
			}
			if s.Migrating || s.Features&split.FeatureMigration == 0 {
				continue
			}
			if cur, ok := c.m.ServerOf(s.ClientID); !ok || cur != row.ID {
				continue
			}
			ci.ID, ci.TransientPeakBytes = s.ClientID, s.DemandBytes
			dst, moved, err := c.m.Rebalance(ci, nil)
			if err != nil || !moved {
				continue
			}
			if err := c.MigrateClient(s.ClientID, row.ID, dst); err != nil {
				c.m.undoMove(ci, row.ID)
				return moves, err
			}
			moves++
		}
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

// Snapshot assembles the /fleetz document; each Load is the server's
// Manager row.
func (c *Controller) Snapshot() FleetSnapshot {
	loads := c.m.Loads() // one row per endpoint, in c.order
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := FleetSnapshot{Policy: c.m.Placer().Name()}
	now := c.clock.Now()
	for i, id := range c.order {
		st := c.eps[id]
		row := FleetServer{
			Endpoint:     st.ep,
			Polled:       st.polled,
			Healthy:      !c.m.isDown(id),
			Error:        st.lastErr,
			ReportedID:   st.reportedID,
			ReportedAddr: st.reportedAddr,
			Draining:     loads[i].Draining,
			AtSeconds:    st.atSeconds,
			Load:         loads[i],
			Clients:      st.clients,
		}
		if st.polled && !row.Healthy && st.haveOK {
			row.DownForSeconds = (now - st.lastOK).Seconds()
		}
		snap.Servers = append(snap.Servers, row)
	}
	return snap
}
