package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"menos/internal/fleet"
	"menos/internal/obs"
	"menos/internal/split"
)

var placerNames = []string{"policy", "round-robin", "least-loaded", "memory-best-fit"}

// fakeServer stands in for one menos-server's metrics and admin
// planes: /healthz echoes its identity, /loadz reports its resident
// clients, /trace holds one span, and the admin plane lists that many
// migratable sessions and accepts every order.
func fakeServer(t *testing.T, id, clients int) fleet.Endpoint {
	t.Helper()
	reply := func(w http.ResponseWriter, doc any) { _ = json.NewEncoder(w).Encode(doc) }
	tracer := obs.NewTracer(nil)
	tracer.RecordT("c", obs.SpanForward, obs.IterTraceID("c", 1), 0, time.Millisecond)
	mux := http.NewServeMux()
	mux.Handle("GET /trace", obs.Handler(nil, tracer))
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
	reg := obs.NewRegistry()
	ctrl, err := fleet.NewController(fleet.ControllerConfig{Endpoints: eps, Placer: p, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := ctrl.PollOnce(); n != len(clients) {
		t.Fatalf("healthy = %d, want %d", n, len(clients))
	}
	return ctrl, newMux(plane{ctrl: ctrl, reg: reg})
}

func post(h http.Handler, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec
}

func get(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
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

// TestPlacesBetweenPollsSpread: a /place counts against the next one
// before any poll sees the client, so under the policy placer two
// arrivals on an idle two-server fleet land on different servers.
func TestPlacesBetweenPollsSpread(t *testing.T) {
	_, h := testPlane(t, "policy", 0, 0)
	if a, b := placeID(t, h, "a"), placeID(t, h, "b"); a == b {
		t.Fatalf("both placements landed on server %d", a)
	}
}

// TestRetriedPlaceAnswersTheSameServer: a client that retries /place
// gets 200 and the server it was already given, every time.
func TestRetriedPlaceAnswersTheSameServer(t *testing.T) {
	for _, name := range placerNames {
		t.Run(name, func(t *testing.T) {
			_, h := testPlane(t, name, 0, 0)
			first := placeID(t, h, "c")
			if again := placeID(t, h, "c"); again != first {
				t.Fatalf("retried /place answered server %d, first answered %d", again, first)
			}
		})
	}
}

// TestPlaceAfterDrainMovesTheClient: a client whose server was drained
// after its /place is placed elsewhere when it asks again.
func TestPlaceAfterDrainMovesTheClient(t *testing.T) {
	for _, name := range placerNames {
		t.Run(name, func(t *testing.T) {
			_, h := testPlane(t, name, 0, 0)
			first := placeID(t, h, "c")
			if rec := post(h, fmt.Sprintf("/drain?id=%d", first), ""); rec.Code != http.StatusAccepted {
				t.Fatalf("drain: %d %s", rec.Code, rec.Body)
			}
			if again := placeID(t, h, "c"); again == first {
				t.Fatalf("/place after the drain answered the drained server %d", again)
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

// TestHandlersRaceTheTicks: /place, /drain, /trace and /metrics arrive
// on their own goroutines while the daemon's loop polls and rebalances,
// as under http.Serve; the trace merge and the fleet gauges run on
// those handler goroutines. Run under -race (make test-race). Every
// /place must succeed, every /drain must be accepted or refused as the
// last server, every /trace and /metrics must answer 200, and one
// server must be left accepting placements.
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
			for _, target := range []string{"/trace", "/metrics"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						if rec := get(h, target); rec.Code != http.StatusOK {
							t.Errorf("GET %s: %d %s", target, rec.Code, rec.Body)
						}
					}
				}()
			}
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

// TestPlaceCountsInFleetMetrics: fleetd's registry carries the
// Manager's menos_fleet_* families, so two /place calls read as two
// placements, with every polled endpoint an active server.
func TestPlaceCountsInFleetMetrics(t *testing.T) {
	_, h := testPlane(t, "policy", 0, 0, 0)
	placeID(t, h, "a")
	placeID(t, h, "b")
	rec := get(h, "/metrics.json")
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/metrics.json: %v\n%s", err, rec.Body)
	}
	if got := doc.Counters[obs.MetricFleetPlacements]; got != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricFleetPlacements, got)
	}
	if got, ok := doc.Gauges[obs.MetricFleetServers]; !ok || got != 3 {
		t.Errorf("%s = %d (present %v), want 3", obs.MetricFleetServers, got, ok)
	}
}
