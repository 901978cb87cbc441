package splitsim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"menos/internal/memmodel"
	"menos/internal/obs"
)

// sumLabeledHist sums count and sum across every {client=...} series of
// a labeled histogram family.
func sumLabeledHist(t *testing.T, hv *obs.HistogramVec) (int64, float64) {
	t.Helper()
	var count int64
	var sum float64
	for _, l := range hv.Labels() {
		h, ok := hv.Get(l)
		if !ok {
			t.Fatalf("label %q listed but not gettable", l)
		}
		snap := h.Snapshot()
		count += snap.Count
		sum += snap.Sum
	}
	return count, sum
}

// TestMenosAccountingConservation: the per-tenant ledger's labeled
// series must sum to the unlabeled aggregates the dashboards already
// use — every grant wait lands in exactly one {client=...} series of
// the same menos_sched_wait_seconds family the scheduler observes
// unlabeled, and nothing is double-counted or dropped.
func TestMenosAccountingConservation(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := menosCfg(4, memmodel.PaperOPTWorkload())
	cfg.Metrics = reg
	r := run(t, cfg)

	agg := reg.Histogram(obs.MetricSchedWaitSeconds, nil).Snapshot()
	if agg.Count == 0 {
		t.Fatal("no scheduler waits observed")
	}
	hv := reg.HistogramVec(obs.MetricSchedWaitSeconds, "client", obs.DurationBuckets())
	count, sum := sumLabeledHist(t, hv)
	if count != agg.Count {
		t.Errorf("labeled wait count %d != unlabeled %d", count, agg.Count)
	}
	// The kernel is single-threaded, so both accumulators add the same
	// float sequence; allow only rounding-level slack.
	if diff := math.Abs(sum - agg.Sum); diff > 1e-9*math.Max(1, math.Abs(agg.Sum)) {
		t.Errorf("labeled wait sum %.12f != unlabeled %.12f", sum, agg.Sum)
	}

	// Per-client rows: every client ran all iterations, shipped the
	// same bytes both ways, and held memory for a positive time.
	rows := map[string]obs.ClientUsage{}
	for _, u := range ledgerRows(reg) {
		rows[u.ID] = u
	}
	transfer := cfg.Clients[0].Workload.TransferBytes()
	for _, cl := range cfg.Clients {
		u, ok := rows[cl.ID]
		if !ok {
			t.Fatalf("no ledger row for %q (rows: %v)", cl.ID, rows)
		}
		if u.Iterations != int64(cfg.Iterations) {
			t.Errorf("%s: iterations = %d, want %d", cl.ID, u.Iterations, cfg.Iterations)
		}
		// Two uploads and two downloads per iteration, all of transfer
		// bytes, seen from the server: tx = downloads, rx = uploads.
		want := 2 * int64(cfg.Iterations) * transfer
		if u.WireTxBytes != want || u.WireRxBytes != want {
			t.Errorf("%s: wire tx/rx = %d/%d, want %d each", cl.ID, u.WireTxBytes, u.WireRxBytes, want)
		}
		if u.ComputeSeconds <= 0 {
			t.Errorf("%s: no compute seconds accounted", cl.ID)
		}
		if u.PersistentByteSeconds <= 0 || u.TransientByteSeconds <= 0 {
			t.Errorf("%s: byte-seconds not accrued: persist=%.3f transient=%.3f",
				cl.ID, u.PersistentByteSeconds, u.TransientByteSeconds)
		}
	}
	_ = r
}

// ledgerRows reconstructs per-client usage from the exported labeled
// counters — the same data /loadz serves, read back through the
// registry as a scrape would.
func ledgerRows(reg *obs.Registry) []obs.ClientUsage {
	iters := reg.CounterVec(obs.MetricServerIterations, "client")
	tx := reg.CounterVec(obs.MetricServerWireTxBytes, "client")
	rx := reg.CounterVec(obs.MetricServerWireRxBytes, "client")
	pbs := reg.CounterVec(obs.MetricGPUPersistentByteSeconds, "client")
	tbs := reg.CounterVec(obs.MetricGPUTransientByteSeconds, "client")
	comp := reg.HistogramVec(obs.MetricServerComputeSeconds, "client", obs.DurationBuckets())
	var rows []obs.ClientUsage
	for _, l := range iters.Labels() {
		u := obs.ClientUsage{ID: l, Iterations: iters.With(l).Value()}
		u.WireTxBytes = tx.With(l).Value()
		u.WireRxBytes = rx.With(l).Value()
		u.PersistentByteSeconds = float64(pbs.With(l).Value())
		u.TransientByteSeconds = float64(tbs.With(l).Value())
		u.ComputeSeconds = comp.With(l).Snapshot().Sum
		rows = append(rows, u)
	}
	return rows
}

// TestMenosAccountingDeterminismPin: enabling the accounting plane must
// not change the simulation by one bit (the ledger observes virtual
// time, it never advances it), and two accounted runs must produce
// identical ledgers.
func TestMenosAccountingDeterminismPin(t *testing.T) {
	runJSON := func(instrument bool) ([]byte, []obs.ClientUsage) {
		cfg := menosCfg(3, memmodel.PaperOPTWorkload())
		var reg *obs.Registry
		if instrument {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
		}
		r := run(t, cfg)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !instrument {
			return b, nil
		}
		return b, ledgerRows(reg)
	}

	plain, _ := runJSON(false)
	acct1, rows1 := runJSON(true)
	acct2, rows2 := runJSON(true)
	if string(plain) != string(acct1) {
		t.Error("accounting changed the simulation result")
	}
	if string(acct1) != string(acct2) {
		t.Error("accounted runs diverge")
	}
	if len(rows1) == 0 || !reflect.DeepEqual(rows1, rows2) {
		t.Errorf("ledgers diverge:\n%v\n%v", rows1, rows2)
	}
}
