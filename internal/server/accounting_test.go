package server

import (
	"math"
	"net"
	"testing"
	"time"

	"menos/internal/client"
	"menos/internal/obs"
	"menos/internal/share"
	"menos/internal/tensor"
)

// TestAccountingConservationOverTCP drives two real clients over
// loopback TCP and checks the per-tenant ledger against the unlabeled
// aggregates: every compute second, grant wait and iteration lands in
// exactly one {client=...} series of the same metric family, and the
// labeled series sum back to the totals.
func TestAccountingConservationOverTCP(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Metrics: reg, ServerID: 7})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	steps := map[string]int{"tenant-a": 3, "tenant-b": 2}
	for id, n := range steps {
		c, err := client.Dial(l.Addr().String(), clientCfg(id))
		if err != nil {
			t.Fatal(err)
		}
		ids, targets := batchFor(clientCfg(id), 3)
		for i := 0; i < n; i++ {
			if _, err := c.Step(ids, targets); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	waitForTeardown(t, reg)

	// Iterations: unlabeled counter == Σ labeled == Σ steps.
	var total int64
	for _, n := range steps {
		total += int64(n)
	}
	iters := reg.CounterVec(obs.MetricServerIterations, "client")
	var labeled int64
	for _, lbl := range iters.Labels() {
		n := iters.With(lbl).Value()
		if want := int64(steps[lbl]); n != want {
			t.Errorf("iterations{client=%q} = %d, want %d", lbl, n, want)
		}
		labeled += n
	}
	if agg := reg.Counter(obs.MetricServerIterations).Value(); labeled != agg || agg != total {
		t.Errorf("iteration conservation: labeled %d, unlabeled %d, served %d", labeled, agg, total)
	}

	// Compute seconds and grant waits: labeled histograms sum to the
	// unlabeled aggregates (float sums within rounding slack — the two
	// accumulators see the same values, possibly interleaved).
	checkHist := func(name string, bounds []float64) {
		t.Helper()
		agg := reg.Histogram(name, nil).Snapshot()
		if agg.Count == 0 {
			t.Fatalf("%s: no unlabeled observations", name)
		}
		hv := reg.HistogramVec(name, "client", bounds)
		var count int64
		var sum float64
		for _, lbl := range hv.Labels() {
			h, _ := hv.Get(lbl)
			snap := h.Snapshot()
			count += snap.Count
			sum += snap.Sum
		}
		if count != agg.Count {
			t.Errorf("%s: labeled count %d != unlabeled %d", name, count, agg.Count)
		}
		if diff := math.Abs(sum - agg.Sum); diff > 1e-9*math.Max(1, math.Abs(agg.Sum)) {
			t.Errorf("%s: labeled sum %.12f != unlabeled %.12f", name, sum, agg.Sum)
		}
	}
	checkHist(obs.MetricServerComputeSeconds, obs.DurationBuckets())
	checkHist(obs.MetricSchedWaitSeconds, obs.DurationBuckets())

	// Ledger rows: persistent prefixes stripped, wire traffic counted,
	// holdings released on teardown, byte-seconds accrued.
	rows := srv.Ledger().Snapshot()
	if len(rows) != len(steps) {
		t.Fatalf("ledger rows = %+v, want one per tenant", rows)
	}
	for _, u := range rows {
		if _, ok := steps[u.ID]; !ok {
			t.Errorf("unexpected ledger row %q (prefix not stripped?)", u.ID)
		}
		if u.WireTxBytes == 0 || u.WireRxBytes == 0 {
			t.Errorf("%s: wire bytes tx=%d rx=%d, want both > 0", u.ID, u.WireTxBytes, u.WireRxBytes)
		}
		if u.PersistentBytes != 0 || u.TransientBytes != 0 {
			t.Errorf("%s: holdings not released: persist=%d transient=%d", u.ID, u.PersistentBytes, u.TransientBytes)
		}
		if u.PersistentByteSeconds <= 0 {
			t.Errorf("%s: no persistent byte-seconds accrued", u.ID)
		}
		if u.ComputeSeconds <= 0 {
			t.Errorf("%s: no compute accounted", u.ID)
		}
	}

	// The /loadz document after all clients left: identity, capacity
	// and the hosted model, with the ledger rows riding along.
	snap := srv.LoadSnapshot()
	if snap.Server.ID != 7 {
		t.Errorf("server id = %d, want 7", snap.Server.ID)
	}
	if snap.Server.Clients != 0 || snap.Server.CommittedBytes != 0 {
		t.Errorf("stale sessions in snapshot: %+v", snap.Server)
	}
	if snap.Server.CapacityBytes <= 0 || snap.Server.UsedBytes <= 0 {
		t.Errorf("capacity/used not reported: %+v", snap.Server)
	}
	if len(snap.Server.Models) != 1 || snap.Server.Models[0] != testModelCfg().Name {
		t.Errorf("models = %v, want [%s]", snap.Server.Models, testModelCfg().Name)
	}
	if len(snap.Clients) != len(steps) {
		t.Errorf("snapshot clients = %+v, want %d rows", snap.Clients, len(steps))
	}
	if snap.AtSeconds <= 0 {
		t.Errorf("at_seconds = %v, want > 0", snap.AtSeconds)
	}
}

// waitForTeardown blocks until every session's asynchronous teardown
// has run (the active-clients gauge returns to zero).
func waitForTeardown(t *testing.T, reg *obs.Registry) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge(obs.MetricServerActiveClients).Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("active clients gauge stuck at %d", reg.Gauge(obs.MetricServerActiveClients).Value())
		}
		time.Sleep(time.Millisecond)
	}
}
