package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"menos/internal/fleet"
	"menos/internal/obs"
)

func testSnapshot() fleet.LoadSnapshot {
	return fleet.LoadSnapshot{
		AtSeconds: 42,
		Server: fleet.ServerLoad{
			ID:             1,
			Clients:        2,
			QueueDepth:     3,
			UsedBytes:      8 << 30,
			Admission:      fleet.AdmissionThrottled,
			CommittedBytes: 2 << 30,
			CapacityBytes:  32 << 30,
			Models:         []string{"opt-6.7b"},
		},
		Clients: []obs.ClientUsage{
			{ID: "cold", ComputeSeconds: 0.5, Iterations: 1},
			{ID: "hot", ComputeSeconds: 9.5, GrantWaitSeconds: 1.25,
				PersistentByteSeconds: 3 << 30, WireTxBytes: 5 << 20,
				WireRxBytes: 6 << 20, Iterations: 12, Sheds: 1, Retries: 2},
			{ID: "warm", ComputeSeconds: 4.0, Iterations: 7},
		},
	}
}

func loadzServer(t *testing.T, snap fleet.LoadSnapshot) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/loadz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap)
	})
	web := httptest.NewServer(mux)
	t.Cleanup(web.Close)
	return web
}

// TestOnceSnapshot drives the CLI end to end against two fake servers:
// one healthy, one down. The healthy server's tenants render sorted by
// compute (heaviest first, capped by -top) and the dead one is marked
// DOWN instead of aborting the dashboard.
func TestOnceSnapshot(t *testing.T) {
	web := loadzServer(t, testSnapshot())
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	var out strings.Builder
	err := run([]string{
		"-once", "-top", "2",
		"-servers", strings.TrimPrefix(web.URL, "http://") + "," + dead.URL,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"server 1", "clients=2", "queue=3", "throttled", "opt-6.7b",
		"8.0/32.0 GiB", "hot", "warm", "... 1 more tenant(s)", "DOWN",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// -top 2 hides the lightest tenant.
	if strings.Contains(got, "cold") {
		t.Errorf("tenant beyond -top still rendered:\n%s", got)
	}
	// Heaviest compute renders first.
	if strings.Index(got, "hot") > strings.Index(got, "warm") {
		t.Errorf("tenants not sorted by compute:\n%s", got)
	}
}

// fleetdServer is a fake control plane serving /fleetz the way
// menos-fleetd does: one healthy server and one down with accumulated
// down-time.
func fleetdServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/fleetz", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(fleet.FleetSnapshot{
			Policy: "least-loaded",
			Servers: []fleet.FleetServer{
				{
					Endpoint: fleet.Endpoint{ID: 1, MetricsURL: "http://a:9090"},
					Polled:   true, Healthy: true,
					AtSeconds: 42, Load: testSnapshot().Server, Clients: testSnapshot().Clients,
				},
				{
					Endpoint: fleet.Endpoint{ID: 2, MetricsURL: "http://b:9090"},
					Polled:   true, Healthy: false,
					Error: "connection refused", DownForSeconds: 17,
				},
			},
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestFleetdSnapshot drives -fleetd -once end to end against a fake
// control plane: the healthy row renders, the DOWN row carries its
// error and down-time.
func TestFleetdSnapshot(t *testing.T) {
	srv := fleetdServer(t)
	var out strings.Builder
	if err := run([]string{"-once", "-fleetd", srv.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"policy least-loaded",
		"server 1",
		"DOWN: for 17s: connection refused",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestOnceJSON pins the machine-readable mode: -once -json emits the
// raw fleetz payload as one document.
func TestOnceJSON(t *testing.T) {
	srv := fleetdServer(t)
	var out strings.Builder
	if err := run([]string{"-once", "-json", "-fleetd", srv.URL}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Fleetz *fleet.FleetSnapshot `json:"fleetz"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out.String())
	}
	if doc.Fleetz == nil || len(doc.Fleetz.Servers) != 2 {
		t.Fatalf("fleetz = %+v", doc.Fleetz)
	}
}

// TestOnceJSONServers pins -json in direct -servers mode: one row per
// target, down targets carrying the error instead of a load document.
func TestOnceJSONServers(t *testing.T) {
	web := loadzServer(t, testSnapshot())
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	var out strings.Builder
	err := run([]string{
		"-once", "-json",
		"-servers", strings.TrimPrefix(web.URL, "http://") + "," + dead.URL,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Servers []struct {
			Target string              `json:"target"`
			Error  string              `json:"error"`
			Loadz  *fleet.LoadSnapshot `json:"loadz"`
		} `json:"servers"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out.String())
	}
	if len(doc.Servers) != 2 {
		t.Fatalf("rows = %d, want 2", len(doc.Servers))
	}
	if doc.Servers[0].Loadz == nil || doc.Servers[0].Loadz.Server.ID != 1 {
		t.Fatalf("healthy row = %+v", doc.Servers[0])
	}
	if doc.Servers[1].Error == "" || doc.Servers[1].Loadz != nil {
		t.Fatalf("dead row = %+v", doc.Servers[1])
	}
}

func TestJSONRequiresOnce(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-json", "-servers", "x:1"}, &out); err == nil {
		t.Fatal("-json without -once accepted")
	}
}

// TestRunRejectsBadFlags: a non-positive -interval (NewTicker panics),
// a non-positive -timeout (no HTTP deadline: a stalled server hangs
// the dashboard) and a negative -top are refused before any poll.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-interval", "0"}, "-interval"},
		{[]string{"-interval", "-1s"}, "-interval"},
		{[]string{"-timeout", "0"}, "-timeout"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-top", "-1"}, "-top"},
	} {
		var out strings.Builder
		err := run(append([]string{"-once", "-servers", "127.0.0.1:1"}, tc.flags...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: err = %v, want it to mention %q", tc.flags, err, tc.want)
		}
	}
}

func TestSplitTargets(t *testing.T) {
	got := splitTargets(" host1:9090, http://host2:9191/ ,")
	want := []string{"http://host1:9090/loadz", "http://host2:9191/loadz"}
	if len(got) != len(want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("target[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if targets := splitTargets(""); targets != nil {
		t.Errorf("empty spec produced %v", targets)
	}
}

func TestRunRejectsNoServers(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-once"}, &out); err == nil {
		t.Fatal("no -servers accepted")
	}
}

func TestAdmissionString(t *testing.T) {
	for state, want := range map[fleet.AdmissionState]string{
		fleet.AdmissionOpen:      "open",
		fleet.AdmissionThrottled: "throttled",
		fleet.AdmissionShedding:  "shedding",
		fleet.AdmissionState(9):  "state(9)",
	} {
		if got := admissionString(state); got != want {
			t.Errorf("admissionString(%d) = %q, want %q", state, got, want)
		}
	}
}
