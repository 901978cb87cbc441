package server

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
	"time"

	"menos/internal/client"
	"menos/internal/gpu"
	"menos/internal/obs"
	"menos/internal/share"
	"menos/internal/tensor"
)

// newFlight is a flight recorder that rate-limits nothing, so every
// trigger leaves its own record.
func newFlight(t *testing.T) *obs.FlightRecorder {
	t.Helper()
	fr, err := obs.NewFlightRecorder(obs.FlightConfig{Dir: t.TempDir(), MinInterval: time.Nanosecond}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fr.Close() })
	return fr
}

// flightReasons closes fr, which writes every queued trigger, and counts
// its records by reason.
func flightReasons(t *testing.T, fr *obs.FlightRecorder) map[string]int {
	t.Helper()
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(fr.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reasons := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 8<<20)
	for sc.Scan() {
		var rec struct{ Reason string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		reasons[rec.Reason]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reasons
}

// TestNeverFitsHandshakeRecordsOOM: a tenant whose backward demand no
// grant on this budget can ever cover is refused at the handshake, and
// the refusal leaves exactly one "oom" flight record.
func TestNeverFitsHandshakeRecordsOOM(t *testing.T) {
	_, mb, persist := tenantFootprint(t)
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	fr := newFlight(t)
	_, addr := startServer(t, Config{
		Store:  store,
		GPU:    gpu.NewDevice(gpu.Spec{Name: "small", MemoryBytes: store.BaseParamBytes() + persist + mb - 1}, nil),
		Flight: fr,
	})
	if c, err := client.Dial(addr, clientCfg("too-big")); err == nil {
		c.Close()
		t.Fatal("a backward demand above the schedulable budget was admitted")
	}
	if got := flightReasons(t, fr); got[obs.FlightReasonOOM] != 1 || len(got) != 1 {
		t.Errorf("flight records by reason %v, want exactly one %q", got, obs.FlightReasonOOM)
	}
}
