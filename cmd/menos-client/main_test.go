package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"menos/internal/adapter"
	"menos/internal/core"
	"menos/internal/fleet"
	"menos/internal/memmodel"
	"menos/internal/model"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-model", "does-not-exist"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := run([]string{"-model", "opt-tiny", "-adapter", "nope"}); err == nil {
		t.Fatal("unknown adapter accepted")
	}
	if err := run([]string{"-model", "opt-tiny", "-dataset", "nope"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := run([]string{"-model", "opt-tiny", "-addr", "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable server accepted")
	}
	if err := run([]string{"-model", "opt-tiny", "-metrics-addr", "256.256.256.256:0"}); err == nil {
		t.Fatal("unusable metrics address accepted")
	}
}

func TestLoadTokens(t *testing.T) {
	for _, ds := range []string{"shakespeare", "wikitext"} {
		tokens, err := loadTokens(ds, 96, 1)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if len(tokens) < 100 {
			t.Fatalf("%s: only %d tokens", ds, len(tokens))
		}
	}
}

// TestMissingWeightsFileFails: -weights names the base checkpoint the
// client loads instead of deriving weights from -seed; a file that is
// not there fails the run, naming the path.
func TestMissingWeightsFileFails(t *testing.T) {
	dep, err := core.NewDeployment(core.DeploymentConfig{
		Model:      model.OPTTiny(),
		WeightSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "no-such-base.ckpt")
	err = run([]string{"-addr", addr, "-model", "opt-tiny", "-weights", missing, "-steps", "1"})
	if err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("run with a missing -weights file: %v, want an error naming %s", err, missing)
	}
}

// TestClientAgainstLiveServer drives the full CLI pair: an in-process
// deployment plus the client command's run().
func TestClientAgainstLiveServer(t *testing.T) {
	dep, err := core.NewDeployment(core.DeploymentConfig{
		Model:      model.OPTTiny(),
		WeightSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-addr", addr,
		"-id", "cli-test",
		"-model", "opt-tiny",
		"-seed", "42",
		"-dataset", "shakespeare",
		"-steps", "3",
		"-batch", "2",
		"-seq", "16",
		"-metrics-addr", "127.0.0.1:0", // exercise the telemetry endpoint wiring
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFleetdPlacementCarriesDemand: with -fleetd the client posts its
// predicted footprint to /place — memmodel's persistent bytes and
// backward peak for its model, the default cut, adapter, batch and
// seq — so the placer weighs real demand rather than zero.
func TestFleetdPlacementCarriesDemand(t *testing.T) {
	var got fleet.ClientInfo
	fleetd := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/place" {
			http.NotFound(w, req)
			return
		}
		if err := json.NewDecoder(req.Body).Decode(&got); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Nothing listens there: the run stops at the dial.
		_ = json.NewEncoder(w).Encode(fleet.Endpoint{ID: 1, Addr: "127.0.0.1:1"})
	}))
	defer fleetd.Close()
	if err := run([]string{"-fleetd", fleetd.URL, "-id", "tenant", "-model", "opt-tiny", "-adapter", "bottleneck",
		"-batch", "2", "-seq", "16", "-steps", "1"}); err == nil {
		t.Fatal("run dialed a server nobody listens on")
	}
	w := memmodel.Workload{Model: model.OPTTiny(), Cut: model.DefaultCut, Adapter: adapter.BottleneckSpec(adapter.DefaultBottleneck()),
		Optimizer: memmodel.OptAdam, Batch: 2, Seq: 16}
	want := fleet.ClientInfo{ID: "tenant", BaseModel: "opt-tiny",
		PersistentBytes: w.PersistentClientBytes(), TransientPeakBytes: w.BackwardPeakBytes()}
	if got.PersistentBytes == 0 || got.TransientPeakBytes == 0 || got != want {
		t.Fatalf("/place body = %+v, want %+v", got, want)
	}
}
