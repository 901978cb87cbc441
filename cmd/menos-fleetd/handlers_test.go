package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"menos/internal/fleet"
	"menos/internal/obs"
	"menos/internal/split"
	"menos/internal/tsdb"
)

var placerNames = []string{"policy", "round-robin", "least-loaded", "memory-best-fit"}

// fakeServer stands in for one menos-server's metrics and admin
// planes: /healthz echoes its identity, /loadz reports its resident
// clients, and the admin plane lists that many migratable sessions and
// accepts every order.
func fakeServer(t *testing.T, id, clients int) fleet.Endpoint {
	t.Helper()
	reply := func(w http.ResponseWriter, doc any) { _ = json.NewEncoder(w).Encode(doc) }
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		reply(w, map[string]any{"status": "ok", "server_id": id})
	})
	mux.HandleFunc("GET /loadz", func(w http.ResponseWriter, _ *http.Request) {
		reply(w, fleet.LoadSnapshot{Server: fleet.ServerLoad{ID: id, Clients: clients, CapacityBytes: 32 << 30}})
	})
	mux.HandleFunc("GET /admin/sessions", func(w http.ResponseWriter, _ *http.Request) {
		sessions := make([]fleet.SessionInfo, clients)
		for i := range sessions {
			sessions[i] = fleet.SessionInfo{ClientID: fmt.Sprintf("s%d-%d", id, i), Features: split.FeatureMigration}
		}
		reply(w, sessions)
	})
	mux.HandleFunc("POST /admin/migrate", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return fleet.Endpoint{ID: id, Addr: fmt.Sprintf("127.0.0.1:%d", 7600+id), MetricsURL: srv.URL, AdminURL: srv.URL}
}

// testPlane polls one fake server per entry of clients (IDs from 1,
// with that many resident clients) under the named placer, and returns
// the controller with the daemon's mux over it.
func testPlane(t *testing.T, placer string, clients ...int) (*fleet.Controller, http.Handler) {
	t.Helper()
	p, err := fleet.PlacerByName(placer)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]fleet.Endpoint, len(clients))
	for i, n := range clients {
		eps[i] = fakeServer(t, i+1, n)
	}
	ctrl, err := fleet.NewController(fleet.ControllerConfig{Endpoints: eps, Placer: p})
	if err != nil {
		t.Fatal(err)
	}
	if n := ctrl.PollOnce(); n != len(clients) {
		t.Fatalf("healthy = %d, want %d", n, len(clients))
	}
	return ctrl, newMux(plane{
		ctrl: ctrl, reg: obs.NewRegistry(), store: tsdb.New(tsdb.Config{}),
		clock: obs.NewWallClock(),
	})
}

func post(h http.Handler, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec
}

// placeID posts one /place and returns the chosen server's ID.
func placeID(t *testing.T, h http.Handler, client string) int {
	t.Helper()
	rec := post(h, "/place", fmt.Sprintf(`{"ID":%q,"TransientPeakBytes":1073741824}`, client))
	if rec.Code != http.StatusOK {
		t.Fatalf("/place %s: %d %s", client, rec.Code, rec.Body)
	}
	var ep fleet.Endpoint
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatal(err)
	}
	return ep.ID
}

// TestPlaceNeverReturnsADrainedServer: under every -placer, /place
// never answers with a server /drain has marked. Server 1 is what each
// placer would otherwise pick (round-robin's first, the least loaded,
// the lowest ID of two equal memory fits).
func TestPlaceNeverReturnsADrainedServer(t *testing.T) {
	for _, name := range placerNames {
		t.Run(name, func(t *testing.T) {
			ctrl, h := testPlane(t, name, 0, 3)
			if rec := post(h, "/drain?id=1", ""); rec.Code != http.StatusAccepted {
				t.Fatalf("/drain?id=1: %d %s", rec.Code, rec.Body)
			}
			for i := 0; i < 4; i++ {
				if i == 2 {
					ctrl.PollOnce()
				}
				if id := placeID(t, h, fmt.Sprintf("c%d", i)); id == 1 {
					t.Fatalf("/place %d answered with drained server 1", i)
				}
			}
		})
	}
}

// TestDrainStatusCodes: /drain is 202 on success (and on a repeat),
// 400 for an id that is not a number, 404 for an unknown server and
// 409 for the last server that is not draining.
func TestDrainStatusCodes(t *testing.T) {
	_, h := testPlane(t, "policy", 0, 0)
	for _, tc := range []struct {
		target string
		want   int
	}{
		{"/drain?id=x", http.StatusBadRequest},
		{"/drain", http.StatusBadRequest},
		{"/drain?id=9", http.StatusNotFound},
		{"/drain?id=1", http.StatusAccepted},
		{"/drain?id=1", http.StatusAccepted},
		{"/drain?id=2", http.StatusConflict},
	} {
		if rec := post(h, tc.target, ""); rec.Code != tc.want {
			t.Errorf("POST %s: %d %s, want %d", tc.target, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
		}
	}
}

// TestBadBodiesAre400: a body that is not JSON is the caller's error,
// on /migrate and on /place.
func TestBadBodiesAre400(t *testing.T) {
	_, h := testPlane(t, "policy", 0)
	for _, target := range []string{"/migrate", "/place"} {
		if rec := post(h, target, "{"); rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s with a bad body: %d, want 400", target, rec.Code)
		}
	}
}

// TestHandlersRaceTheTicks: /place and /drain arrive on their own
// goroutines while the daemon's loop polls and rebalances, as under
// http.Serve. Run under -race (make test-race). Every /place must
// succeed, every /drain must be accepted or refused as the last server,
// and one server must be left accepting placements.
func TestHandlersRaceTheTicks(t *testing.T) {
	for _, name := range placerNames {
		t.Run(name, func(t *testing.T) {
			ctrl, h := testPlane(t, name, 2, 0, 1)
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						rec := post(h, "/place", fmt.Sprintf(`{"ID":"g%d-%d"}`, g, i))
						if rec.Code != http.StatusOK {
							t.Errorf("/place: %d %s", rec.Code, rec.Body)
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for id := 1; id <= 3; id++ {
					rec := post(h, fmt.Sprintf("/drain?id=%d", id), "")
					if rec.Code != http.StatusAccepted && rec.Code != http.StatusConflict {
						t.Errorf("/drain?id=%d: %d %s", id, rec.Code, rec.Body)
					}
				}
			}()
			for i := 0; i < 5; i++ {
				ctrl.PollOnce()
				if _, err := ctrl.RebalanceOnce(); err != nil {
					t.Error(err)
				}
			}
			wg.Wait()
			active := 0
			for _, s := range ctrl.Snapshot().Servers {
				if !s.Draining {
					active++
				}
			}
			if active != 1 {
				t.Fatalf("%d servers left accepting placements, want 1", active)
			}
		})
	}
}
