package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"menos/internal/client"
	"menos/internal/fleet"
	"menos/internal/model"
	"menos/internal/obs"
)

// TestLoadzIsTheSessionList: a live server's /loadz row is what its
// /admin/sessions rows add up to — one client per session, and
// committed_bytes the sum of their demand_bytes — so a Controller that
// polls both rebuilds the server's own row exactly.
func TestLoadzIsTheSessionList(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5, ServerID: 3, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(obs.NewRegistry(), nil,
		obs.WithLoadz(func() any { return dep.Server.LoadSnapshot() }),
		obs.WithIdentity(func() (int, string) { return 3, addr })))
	mux.Handle("/admin/", dep.Server.AdminHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for i, seq := range []int{8, 16} {
		cfg := migClientConfig(fmt.Sprintf("tenant-%d", i))
		cfg.Seq = seq
		c, err := client.Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}

	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	// The server registers a session just after its HelloAck; once both
	// are in, the idle server's documents stand still.
	var sessions []fleet.SessionInfo
	for deadline := time.Now().Add(5 * time.Second); len(sessions) < 2 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		get("/admin/sessions", &sessions)
	}
	var loadz fleet.LoadSnapshot
	get("/loadz", &loadz)
	get("/admin/sessions", &sessions)
	if len(sessions) != 2 || loadz.Server.Clients != len(sessions) {
		t.Fatalf("/loadz clients = %d, /admin/sessions rows = %d, want 2 and 2", loadz.Server.Clients, len(sessions))
	}
	var sum int64
	for _, s := range sessions {
		if s.DemandBytes <= 0 {
			t.Fatalf("session %+v reports no demand", s)
		}
		sum += s.DemandBytes
	}
	if loadz.Server.CommittedBytes != sum {
		t.Fatalf("/loadz committed_bytes = %d, want the sessions' demand_bytes sum %d", loadz.Server.CommittedBytes, sum)
	}

	ctrl, err := fleet.NewController(fleet.ControllerConfig{
		Endpoints: []fleet.Endpoint{{ID: 3, Addr: addr, MetricsURL: srv.URL, AdminURL: srv.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := ctrl.PollOnce(); n != 1 {
		t.Fatalf("healthy = %d, want 1: %+v", n, ctrl.Snapshot().Servers)
	}
	// The /fleetz row goes over the wire, as the /loadz one did.
	var fleetz fleet.FleetSnapshot
	data, err := json.Marshal(ctrl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &fleetz); err != nil {
		t.Fatal(err)
	}
	if got := fleetz.Servers[0].Load; !reflect.DeepEqual(got, loadz.Server) {
		t.Fatalf("/fleetz load row = %+v\n/loadz server row = %+v", got, loadz.Server)
	}
}
