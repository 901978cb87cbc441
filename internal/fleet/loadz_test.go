// The /loadz wire-schema tests live in an external test package so
// they can stand up a real server (internal/server imports fleet; the
// reverse import would cycle).
package fleet_test

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/fleet"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/server"
	"menos/internal/share"
	"menos/internal/tensor"
)

// TestLoadSnapshotRoundTrip pins the /loadz JSON schema: a fully
// populated document survives encode/decode unchanged, and the field
// names the fleet layer promises (ServerLoad's tags) appear on the
// wire.
func TestLoadSnapshotRoundTrip(t *testing.T) {
	want := fleet.LoadSnapshot{
		AtSeconds: 12.5,
		Server: fleet.ServerLoad{
			ID:             3,
			Clients:        2,
			QueueDepth:     4,
			UsedBytes:      5 << 30,
			Admission:      fleet.AdmissionThrottled,
			CommittedBytes: 1 << 30,
			CapacityBytes:  32 << 30,
			Models:         []string{"opt-6.7b"},
			Draining:       true,
		},
		Clients: []obs.ClientUsage{{
			ID:                    "tenant-a",
			ComputeSeconds:        1.5,
			GrantWaitSeconds:      0.25,
			PersistentByteSeconds: 1e9,
			TransientByteSeconds:  2e8,
			PersistentBytes:       128 << 20,
			TransientBytes:        64 << 20,
			WireTxBytes:           1000,
			WireRxBytes:           2000,
			Iterations:            8,
			Sheds:                 1,
			Retries:               2,
		}},
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got fleet.LoadSnapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the document:\n got %+v\nwant %+v", got, want)
	}
	// Spot-check the stable wire names a polling controller greps for.
	for _, key := range []string{`"at_seconds"`, `"queue_depth"`, `"capacity_bytes"`,
		`"committed_bytes"`, `"compute_seconds"`, `"grant_wait_seconds"`, `"iterations"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("wire document missing %s: %s", key, b)
		}
	}
}

// TestLoadzEndToEnd decodes a live server's /loadz — served by the
// metrics mux via obs.WithLoadz — into the fleet types: the full loop a
// menos-fleetd or menos-top would run.
func TestLoadzEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := share.NewStore(tensor.NewRNG(1234), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store, Metrics: reg, ServerID: 42})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	mux := obs.Handler(reg, nil, obs.WithLoadz(func() any { return srv.LoadSnapshot() }))
	web := httptest.NewServer(mux)
	defer web.Close()

	ccfg := client.Config{
		ClientID:    "probe-client",
		Model:       model.OPTTiny(),
		WeightSeed:  1234,
		Cut:         1,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 99,
		LR:          5e-3,
		Batch:       2,
		Seq:         6,
	}
	c, err := client.Dial(l.Addr().String(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := tensor.NewRNG(7)
	n := ccfg.Batch * ccfg.Seq
	ids := make([]int, n)
	targets := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(ccfg.Model.Vocab)
		targets[i] = rng.Intn(ccfg.Model.Vocab)
	}
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}

	resp, err := web.Client().Get(web.URL + "/loadz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /loadz: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	var snap fleet.LoadSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /loadz: %v", err)
	}
	if snap.Server.ID != 42 {
		t.Errorf("server id = %d, want 42", snap.Server.ID)
	}
	if snap.Server.Clients != 1 {
		t.Errorf("clients = %d, want 1 (session still open)", snap.Server.Clients)
	}
	if snap.Server.CommittedBytes <= 0 {
		t.Errorf("committed bytes = %d, want > 0 with a resident client", snap.Server.CommittedBytes)
	}
	if snap.Server.CapacityBytes <= 0 || snap.Server.UsedBytes <= 0 {
		t.Errorf("capacity/used missing: %+v", snap.Server)
	}
	if !snap.Server.HasModel(model.OPTTiny().Name) {
		t.Errorf("models = %v, want %q resident", snap.Server.Models, model.OPTTiny().Name)
	}
	found := false
	for _, u := range snap.Clients {
		if u.ID == "probe-client" {
			found = true
			if u.Iterations != 1 {
				t.Errorf("iterations = %d, want 1", u.Iterations)
			}
			if u.WireRxBytes == 0 || u.WireTxBytes == 0 {
				t.Errorf("wire bytes not accounted: %+v", u)
			}
			if u.PersistentBytes <= 0 {
				t.Errorf("persistent holding = %d, want > 0 while session is open", u.PersistentBytes)
			}
		}
	}
	if !found {
		t.Fatalf("no ledger row for probe-client in %+v", snap.Clients)
	}

	// The placement machinery consumes the decoded row directly.
	placer := fleet.NewMemoryBestFit()
	id, err := placer.Place(fleet.ClientInfo{ID: "next", BaseModel: model.OPTTiny().Name},
		[]fleet.ServerLoad{snap.Server})
	if err != nil || id != 42 {
		t.Errorf("placing onto decoded load: id=%d err=%v", id, err)
	}
}

// TestAdmissionLadderCast pins the integer cast /loadz and the
// simulator use to carry the scheduler's admission state into a
// ServerLoad: each sched state lands on the fleet state of the same
// meaning, so the policy's not-shedding rule and the autoscaler's
// pressure check read the ladder the scheduler is on.
func TestAdmissionLadderCast(t *testing.T) {
	for _, tc := range []struct {
		sched sched.AdmissionState
		fleet fleet.AdmissionState
	}{
		{sched.StateOpen, fleet.AdmissionOpen},
		{sched.StateThrottled, fleet.AdmissionThrottled},
		{sched.StateShedding, fleet.AdmissionShedding},
	} {
		if got := fleet.AdmissionState(tc.sched); got != tc.fleet {
			t.Errorf("fleet.AdmissionState(sched.%v) = %d, want %d", tc.sched, got, tc.fleet)
		}
	}
}
