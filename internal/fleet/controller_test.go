package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"menos/internal/obs"
	"menos/internal/split"
)

// fakeServer impersonates one menos-server's metrics and admin planes
// for controller tests. Like a real server, its /loadz clients is the
// number of sessions /admin/sessions lists.
type fakeServer struct {
	mu       sync.Mutex
	id       int
	addr     string
	load     ServerLoad
	sessions []SessionInfo
	orders   []MigrateOrder
	healthy  bool
	refuse   bool // /admin/migrate answers 409 instead of accepting

	metrics *httptest.Server
	admin   *httptest.Server
}

// newFakeServer starts a fake server hosting clients sessions that did
// not negotiate migration; a test that needs other sessions replaces
// f.sessions before the first poll.
func newFakeServer(t *testing.T, id int, clients int) *fakeServer {
	t.Helper()
	f := &fakeServer{
		id: id, addr: "127.0.0.1:0", healthy: true,
		load: ServerLoad{ID: id, CapacityBytes: 32 * gib},
	}
	for i := 0; i < clients; i++ {
		f.sessions = append(f.sessions, SessionInfo{ClientID: fmt.Sprintf("s%d-%d", id, i)})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if !f.healthy {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		id := f.id
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "server_id": &id, "addr": f.addr,
		})
	})
	mux.HandleFunc("/loadz", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		load := f.load
		load.Clients = len(f.sessions)
		_ = json.NewEncoder(w).Encode(LoadSnapshot{AtSeconds: 1, Server: load})
	})
	f.metrics = httptest.NewServer(mux)
	t.Cleanup(f.metrics.Close)

	amux := http.NewServeMux()
	amux.HandleFunc("GET /admin/sessions", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		_ = json.NewEncoder(w).Encode(f.sessions)
	})
	amux.HandleFunc("POST /admin/migrate", func(w http.ResponseWriter, req *http.Request) {
		var ord MigrateOrder
		if err := json.NewDecoder(req.Body).Decode(&ord); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.refuse {
			http.Error(w, "refused", http.StatusConflict)
			return
		}
		f.orders = append(f.orders, ord)
		w.WriteHeader(http.StatusAccepted)
	})
	f.admin = httptest.NewServer(amux)
	t.Cleanup(f.admin.Close)
	return f
}

func (f *fakeServer) endpoint() Endpoint {
	return Endpoint{ID: f.id, Addr: f.addr, MetricsURL: f.metrics.URL, AdminURL: f.admin.URL}
}

func newTestController(t *testing.T, reg *obs.Registry, fakes ...*fakeServer) *Controller {
	t.Helper()
	eps := make([]Endpoint, len(fakes))
	for i, f := range fakes {
		eps[i] = f.endpoint()
	}
	c, err := NewController(ControllerConfig{Endpoints: eps, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestControllerPollAndPlace(t *testing.T) {
	a := newFakeServer(t, 1, 3)
	b := newFakeServer(t, 2, 0)
	reg := obs.NewRegistry()
	c := newTestController(t, reg, a, b)

	if n := c.PollOnce(); n != 2 {
		t.Fatalf("healthy = %d, want 2", n)
	}
	loads := c.Loads()
	if len(loads) != 2 || loads[0].ID != 1 || loads[1].ID != 2 {
		t.Fatalf("loads = %+v", loads)
	}
	ep, err := c.PlaceClient(ClientInfo{ID: "c", TransientPeakBytes: gib})
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID != 2 {
		t.Fatalf("placed on %d, want emptier server 2", ep.ID)
	}
}

func TestControllerUnhealthyExcluded(t *testing.T) {
	a := newFakeServer(t, 1, 0)
	b := newFakeServer(t, 2, 0)
	b.mu.Lock()
	b.healthy = false
	b.mu.Unlock()
	c := newTestController(t, obs.NewRegistry(), a, b)
	if n := c.PollOnce(); n != 1 {
		t.Fatalf("healthy = %d, want 1", n)
	}
	ep, err := c.PlaceClient(ClientInfo{ID: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID != 1 {
		t.Fatalf("placed on %d, want the only healthy server 1", ep.ID)
	}
	snap := c.Snapshot()
	if snap.Servers[1].Healthy || snap.Servers[1].Error == "" {
		t.Fatalf("snapshot row for down server: %+v", snap.Servers[1])
	}
}

func TestControllerIdentityMismatch(t *testing.T) {
	a := newFakeServer(t, 1, 0)
	// The endpoint claims ID 9 but the process answers as 1 — e.g. a
	// port remap now pointing at a different server.
	ep := a.endpoint()
	ep.ID = 9
	reg := obs.NewRegistry()
	c, err := NewController(ControllerConfig{Endpoints: []Endpoint{ep}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.PollOnce(); n != 0 {
		t.Fatalf("healthy = %d, want 0 on identity mismatch", n)
	}
	snap := c.Snapshot()
	if !strings.Contains(snap.Servers[0].Error, "identity mismatch") {
		t.Fatalf("error = %q, want identity mismatch", snap.Servers[0].Error)
	}
	if snap.Servers[0].ReportedID != 1 {
		t.Fatalf("reported ID = %d, want 1", snap.Servers[0].ReportedID)
	}
	if got := counterValue(t, reg, obs.MetricFleetdIdentityMismatch); got != 1 {
		t.Fatalf("identity mismatch counter = %d, want 1", got)
	}
}

func TestControllerRebalanceEvacuatesDraining(t *testing.T) {
	a := newFakeServer(t, 1, 2)
	a.sessions = []SessionInfo{
		{ClientID: "zeta", Features: split.FeatureMigration},
		{ClientID: "alpha", Features: split.FeatureMigration},
	}
	b := newFakeServer(t, 2, 2)
	reg := obs.NewRegistry()
	c := newTestController(t, reg, a, b)
	c.PollOnce()

	// Balanced fleet: no move.
	if moved, err := c.RebalanceOnce(); err != nil || moved != 0 {
		t.Fatalf("balanced fleet moved=%d err=%v, want no-op", moved, err)
	}

	if err := c.Drain(1); err != nil {
		t.Fatal(err)
	}
	moved, err := c.RebalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	// One tick evacuates the whole draining server: both sessions move.
	if moved != 2 {
		t.Fatalf("moved = %d, want both sessions off the draining server", moved)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.orders) != 2 {
		t.Fatalf("orders = %+v, want exactly two", a.orders)
	}
	if a.orders[0].ClientID != "alpha" || a.orders[1].ClientID != "zeta" {
		t.Fatalf("orders = %+v, want lowest client ID alpha first then zeta", a.orders)
	}
	for _, ord := range a.orders {
		if ord.TargetAddr != b.addr || ord.TargetAdmin != b.admin.URL || ord.Token == 0 {
			t.Fatalf("order = %+v, want target server 2 with a nonzero token", ord)
		}
	}
	if a.orders[0].Token == a.orders[1].Token {
		t.Fatalf("orders share token %d, want distinct resume tokens", a.orders[0].Token)
	}
	if got := counterValue(t, reg, obs.MetricFleetdMigrations); got != 2 {
		t.Fatalf("migrations counter = %d, want 2", got)
	}
}

// TestControllerRebalanceTwoMovesOneTick drains a server holding two
// migratable sessions with two idle targets available: one
// RebalanceOnce tick must order both moves, and the controller's
// pending-count bookkeeping must spread them across both targets
// rather than stacking the second move onto the first target.
func TestControllerRebalanceTwoMovesOneTick(t *testing.T) {
	a := newFakeServer(t, 1, 2)
	a.sessions = []SessionInfo{
		{ClientID: "c1", Features: split.FeatureMigration},
		{ClientID: "c2", Features: split.FeatureMigration},
	}
	b := newFakeServer(t, 2, 0)
	d := newFakeServer(t, 3, 0)
	reg := obs.NewRegistry()
	c := newTestController(t, reg, a, b, d)
	c.PollOnce()
	if err := c.Drain(1); err != nil {
		t.Fatal(err)
	}
	moved, err := c.RebalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("moved = %d, want 2 in a single tick", moved)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.orders) != 2 {
		t.Fatalf("orders = %+v, want exactly two", a.orders)
	}
	if a.orders[0].ClientID != "c1" || a.orders[1].ClientID != "c2" {
		t.Fatalf("orders = %+v, want c1 then c2 in client-ID order", a.orders)
	}
	if a.orders[0].TargetAddr != b.addr {
		t.Fatalf("first order targets %q, want emptiest (lowest-ID) server 2", a.orders[0].TargetAddr)
	}
	if a.orders[1].TargetAddr != d.addr {
		t.Fatalf("second order targets %q, want server 3 after server 2's pending move", a.orders[1].TargetAddr)
	}
	if got := counterValue(t, reg, obs.MetricFleetdMigrations); got != 2 {
		t.Fatalf("migrations counter = %d, want 2", got)
	}
}

func TestControllerRebalanceSkipsNonMigratable(t *testing.T) {
	a := newFakeServer(t, 1, 1)
	a.sessions = []SessionInfo{{ClientID: "legacy"}} // no FeatureMigration
	b := newFakeServer(t, 2, 0)
	c := newTestController(t, obs.NewRegistry(), a, b)
	c.PollOnce()
	if err := c.Drain(1); err != nil {
		t.Fatal(err)
	}
	moved, err := c.RebalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatal("a session without the migration feature must not be ordered to move")
	}
}

func TestControllerRebalanceStrictImprovement(t *testing.T) {
	a := newFakeServer(t, 1, 2)
	a.sessions[0] = SessionInfo{ClientID: "a1", Features: split.FeatureMigration}
	b := newFakeServer(t, 2, 1)
	c := newTestController(t, obs.NewRegistry(), a, b)
	c.PollOnce()
	// 2 vs 1: moving makes it 1 vs 2 — no improvement, no move.
	if moved, err := c.RebalanceOnce(); err != nil || moved != 0 {
		t.Fatalf("moved=%d err=%v, want no-op on a non-improving move", moved, err)
	}
}

// TestControllerRebalanceKeepsThePlacersChoice: memory-best-fit puts a
// client on the tighter of two servers; once the server reports the
// session, the next rebalance asks the same placer and leaves it
// there, though server 1 now has three clients and server 2 none.
func TestControllerRebalanceKeepsThePlacersChoice(t *testing.T) {
	a := newFakeServer(t, 1, 2)
	a.load.UsedBytes = 20 * gib
	b := newFakeServer(t, 2, 0)
	c, err := NewController(ControllerConfig{Endpoints: []Endpoint{a.endpoint(), b.endpoint()}, Placer: NewMemoryBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	c.PollOnce()
	ep, err := c.PlaceClient(ClientInfo{ID: "m", PersistentBytes: gib, TransientPeakBytes: gib})
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID != 1 {
		t.Fatalf("placed on %d, want the tighter fit 1", ep.ID)
	}
	a.mu.Lock()
	a.sessions = append(a.sessions, SessionInfo{ClientID: "m", Features: split.FeatureMigration, DemandBytes: gib})
	a.mu.Unlock()
	c.PollOnce()
	if moved, err := c.RebalanceOnce(); err != nil || moved != 0 {
		t.Fatalf("moved=%d err=%v, want the placer's choice kept", moved, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.orders) != 0 {
		t.Fatalf("orders = %+v, want none", a.orders)
	}
}

// TestControllerPollReplacesPlacements: a placement counts against the
// next decision until the server's next poll, which replaces the
// server's residents with the sessions it reports and their demand.
func TestControllerPollReplacesPlacements(t *testing.T) {
	a := newFakeServer(t, 1, 0)
	a.sessions = []SessionInfo{{ClientID: "x", DemandBytes: 3 * gib}}
	c := newTestController(t, obs.NewRegistry(), a)
	c.PollOnce()
	if _, err := c.PlaceClient(ClientInfo{ID: "p", TransientPeakBytes: gib}); err != nil {
		t.Fatal(err)
	}
	if l := c.Loads()[0]; l.Clients != 2 || l.CommittedBytes != 4*gib {
		t.Fatalf("after a placement: clients %d committed %d, want 2 and 4 GiB", l.Clients, l.CommittedBytes)
	}
	c.PollOnce() // "p" never connected
	if l := c.Loads()[0]; l.Clients != 1 || l.CommittedBytes != 3*gib || l.CapacityBytes != 32*gib {
		t.Fatalf("after the poll: %+v, want the one reported session", l)
	}
}

// TestControllerReplacesOffALostServer: a client placed on a server
// that is then drained, or whose poll then fails, is placed again on
// another server when it calls /place with the same ID, not sent back.
func TestControllerReplacesOffALostServer(t *testing.T) {
	for _, lose := range []string{"drain", "down"} {
		t.Run(lose, func(t *testing.T) {
			a := newFakeServer(t, 1, 0)
			b := newFakeServer(t, 2, 1)
			c := newTestController(t, obs.NewRegistry(), a, b)
			c.PollOnce()
			ep, err := c.PlaceClient(ClientInfo{ID: "c", TransientPeakBytes: gib})
			if err != nil || ep.ID != 1 {
				t.Fatalf("first place: server %d err %v, want the emptier server 1", ep.ID, err)
			}
			a.mu.Lock()
			a.sessions = []SessionInfo{{ClientID: "c", Features: split.FeatureMigration, DemandBytes: gib}}
			a.mu.Unlock()
			c.PollOnce()
			if lose == "drain" {
				if err := c.Drain(1); err != nil {
					t.Fatal(err)
				}
			} else {
				a.mu.Lock()
				a.healthy = false
				a.mu.Unlock()
				c.PollOnce()
			}
			ep, err = c.PlaceClient(ClientInfo{ID: "c", TransientPeakBytes: gib})
			if err != nil || ep.ID != 2 {
				t.Fatalf("second place: server %d err %v, want server 2", ep.ID, err)
			}
			if got, _ := c.m.ServerOf("c"); got != 2 {
				t.Fatalf("the Manager has c on server %d, want 2", got)
			}
		})
	}
}

// TestControllerSameIDOnTwoServers: when two servers each report a
// session with the same client ID, each server's row is still exactly
// what its /loadz reports.
func TestControllerSameIDOnTwoServers(t *testing.T) {
	a := newFakeServer(t, 1, 0)
	a.sessions = []SessionInfo{{ClientID: "client-1", DemandBytes: 2 * gib}, {ClientID: "x", DemandBytes: gib}}
	b := newFakeServer(t, 2, 0)
	b.sessions = []SessionInfo{{ClientID: "client-1", DemandBytes: 3 * gib}}
	c := newTestController(t, obs.NewRegistry(), a, b)
	for poll := 0; poll < 2; poll++ {
		c.PollOnce()
		loads := c.Loads()
		if l := loads[0]; l.Clients != 2 || l.CommittedBytes != 3*gib {
			t.Fatalf("poll %d: server 1 row %+v, want 2 clients and 3 GiB", poll, l)
		}
		if l := loads[1]; l.Clients != 1 || l.CommittedBytes != 3*gib {
			t.Fatalf("poll %d: server 2 row %+v, want 1 client and 3 GiB", poll, l)
		}
	}
}

// TestControllerRebalanceUndoesARefusedOrder: when the source refuses
// a migration order, the Manager keeps the client on the source, so
// placements before the next poll see the fleet as it is.
func TestControllerRebalanceUndoesARefusedOrder(t *testing.T) {
	a := newFakeServer(t, 1, 0)
	a.sessions = []SessionInfo{{ClientID: "m", Features: split.FeatureMigration, DemandBytes: gib}}
	a.refuse = true
	b := newFakeServer(t, 2, 0)
	c := newTestController(t, obs.NewRegistry(), a, b)
	c.PollOnce()
	if err := c.Drain(1); err != nil {
		t.Fatal(err)
	}
	before := c.Loads()
	if moved, err := c.RebalanceOnce(); err == nil || moved != 0 {
		t.Fatalf("moved=%d err=%v, want the refused order's error", moved, err)
	}
	if after := c.Loads(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rows after the refused order %+v, want %+v", after, before)
	}
	if got, _ := c.m.ServerOf("m"); got != 1 {
		t.Fatalf("the Manager has m on server %d, want 1", got)
	}
	if st := c.m.Stats(); st.Migrations != 0 {
		t.Fatalf("migrations = %d, want 0", st.Migrations)
	}
}

// TestControllerPlaceSkipsDraining: under every placer, a drained
// server is never offered to an arriving client — neither before the
// next poll nor after it.
func TestControllerPlaceSkipsDraining(t *testing.T) {
	for _, name := range []string{"round-robin", "least-loaded", "memory-best-fit", "policy"} {
		t.Run(name, func(t *testing.T) {
			// Server 1 is what every placer would pick: the round-robin
			// cursor's first, the least loaded, the lowest ID of two
			// equal memory fits.
			a := newFakeServer(t, 1, 0)
			b := newFakeServer(t, 2, 3)
			placer, err := PlacerByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewController(ControllerConfig{Endpoints: []Endpoint{a.endpoint(), b.endpoint()}, Placer: placer})
			if err != nil {
				t.Fatal(err)
			}
			c.PollOnce()
			if err := c.Drain(1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if i == 2 {
					c.PollOnce()
				}
				ep, err := c.PlaceClient(ClientInfo{ID: fmt.Sprintf("c%d", i), TransientPeakBytes: gib})
				if err != nil {
					t.Fatal(err)
				}
				if ep.ID == 1 {
					t.Fatalf("placement %d landed on drained server 1", i)
				}
			}
		})
	}
}

// TestDrainRefusesLastServerOnBothPlanes: the Manager and the
// Controller refuse to drain the last server that is not draining, with
// the same ErrLastServer. On the Controller a drain is intent, so a
// server that is down still counts as not draining.
func TestDrainRefusesLastServerOnBothPlanes(t *testing.T) {
	a := newFakeServer(t, 1, 0)
	b := newFakeServer(t, 2, 0)
	b.mu.Lock()
	b.healthy = false
	b.mu.Unlock()
	c := newTestController(t, obs.NewRegistry(), a, b)
	c.PollOnce()
	if err := c.Drain(1); err != nil {
		t.Fatalf("controller: drain with a down peer: %v", err)
	}
	if err := c.Drain(1); err != nil {
		t.Fatalf("controller: repeated drain: %v", err)
	}
	if err := c.Drain(2); !errors.Is(err, ErrLastServer) {
		t.Fatalf("controller: drain of the last server: err = %v, want ErrLastServer", err)
	}
	if err := c.Drain(9); err == nil || errors.Is(err, ErrLastServer) {
		t.Fatalf("controller: drain of an unknown server: err = %v, want an unknown-server error", err)
	}
	if snap := c.Snapshot(); snap.Servers[1].Draining {
		t.Fatal("controller: the refused drain marked server 2 draining")
	}

	m := newTestManager(t, NewLeastLoaded(), 2)
	if err := m.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(1); !errors.Is(err, ErrLastServer) {
		t.Fatalf("manager: drain of the last server: err = %v, want ErrLastServer", err)
	}
}

// TestSnapshotReportsPlacerName: /fleetz's policy field is the
// placer's Name, the same string -placer takes.
func TestSnapshotReportsPlacerName(t *testing.T) {
	a := newFakeServer(t, 1, 0)
	for _, name := range []string{"round-robin", "least-loaded", "memory-best-fit", "policy"} {
		placer, err := PlacerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(ControllerConfig{Endpoints: []Endpoint{a.endpoint()}, Placer: placer})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot().Policy; got != name {
			t.Fatalf("policy = %q, want %q", got, name)
		}
	}
}

func TestControllerDuplicateEndpointRejected(t *testing.T) {
	_, err := NewController(ControllerConfig{Endpoints: []Endpoint{{ID: 1}, {ID: 1}}})
	if err == nil {
		t.Fatal("duplicate endpoint IDs must be rejected")
	}
}

// counterValue reads a counter back out of the registry's JSON dump.
func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Counters[name]
}
