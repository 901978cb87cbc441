package splitsim

import (
	"encoding/json"
	"testing"
	"time"

	"menos/internal/batch"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/simnet"
)

// batchedCfg is the multilora-style setup: lockstep LoRA clients on a
// LAN (communication out of the picture — server-side batching is the
// subject), a multi-GPU server so full backward batches fit one grant,
// and a hold window wide enough for lockstep joiners to coalesce.
func batchedCfg(clients, maxSize int) Config {
	cfg := menosCfg(clients, memmodel.PaperOPTWorkload())
	cfg.GPUs = 4
	cfg.Iterations = 3
	cfg.LinkPreset = simnet.LANPreset
	cfg.Batch = &sched.BatchPolicy{MaxSize: maxSize, MaxHold: 100 * time.Millisecond}
	return cfg
}

// TestBatchConfigValidation: batching composes only with the mode and
// policies whose serving loop it replaces.
func TestBatchConfigValidation(t *testing.T) {
	bad := vanillaCfg(2, memmodel.PaperOPTWorkload())
	bad.Batch = &sched.BatchPolicy{MaxSize: 4}
	if _, err := Run(bad); err == nil {
		t.Error("vanilla mode accepted a batch policy")
	}
	bad = menosCfg(2, memmodel.PaperOPTWorkload())
	bad.Policy = PolicyPreserve
	bad.Batch = &sched.BatchPolicy{MaxSize: 4}
	if _, err := Run(bad); err == nil {
		t.Error("preserve policy accepted a batch policy")
	}
	bad = menosCfg(2, memmodel.PaperOPTWorkload())
	bad.Batch = &sched.BatchPolicy{MaxSize: -1}
	if _, err := Run(bad); err == nil {
		t.Error("negative MaxSize accepted")
	}
	// A disabled policy is inert: the run must be bit-identical to a
	// plain serial run, whatever the mode.
	plain := run(t, menosCfg(3, memmodel.PaperOPTWorkload()))
	disabled := menosCfg(3, memmodel.PaperOPTWorkload())
	disabled.Batch = &sched.BatchPolicy{}
	got := run(t, disabled)
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Error("disabled batch policy changed the simulation")
	}
}

// TestBatchedDeterminismPin: a batched run is a pure function of its
// config — two runs, one instrumented, must agree bit-for-bit, and the
// instrumented run's ledger must be reproducible.
func TestBatchedDeterminismPin(t *testing.T) {
	runJSON := func(instrument bool) []byte {
		cfg := batchedCfg(8, 8)
		if instrument {
			cfg.Metrics = obs.NewRegistry()
		}
		r := run(t, cfg)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := runJSON(false)
	acct1 := runJSON(true)
	acct2 := runJSON(true)
	if string(plain) != string(acct1) {
		t.Error("instrumenting changed the batched simulation")
	}
	if string(acct1) != string(acct2) {
		t.Error("batched runs diverge")
	}
}

// TestBatchedKneeSpeedup is the acceptance bar: at 16 clients, a
// MaxSize-16 policy must deliver at least 2× the per-client throughput
// of the MaxSize-1 serial baseline (same serialized-device model, so
// the entire gap is batch formation).
func TestBatchedKneeSpeedup(t *testing.T) {
	serial := run(t, batchedCfg(16, 1))
	batched := run(t, batchedCfg(16, 16))
	speedup := float64(serial.SimulatedTime) / float64(batched.SimulatedTime)
	if speedup < 2 {
		t.Errorf("batch-16 speedup over batch-1 = %.2f×, want ≥ 2× (serial %v, batched %v)",
			speedup, serial.SimulatedTime, batched.SimulatedTime)
	}
	if batched.AvgIterationTime() >= serial.AvgIterationTime() {
		t.Errorf("batched iteration %v not faster than serial %v",
			batched.AvgIterationTime(), serial.AvgIterationTime())
	}
}

// TestBatchedAccountingConservation extends the ledger conservation
// contract to batched runs: every member's grant wait still lands in
// both the unlabeled histogram and exactly one {client=...} series,
// the batch row counters agree labeled vs unlabeled, and compute
// billed across clients equals the device time batches actually spent
// (Σ member shares is exact by construction).
func TestBatchedAccountingConservation(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := batchedCfg(8, 4)
	cfg.Metrics = reg
	run(t, cfg)

	agg := reg.Histogram(obs.MetricSchedWaitSeconds, nil).Snapshot()
	if agg.Count == 0 {
		t.Fatal("no scheduler waits observed")
	}
	hv := reg.HistogramVec(obs.MetricSchedWaitSeconds, "client", obs.DurationBuckets())
	count, sum := sumLabeledHist(t, hv)
	if count != agg.Count {
		t.Errorf("labeled wait count %d != unlabeled %d", count, agg.Count)
	}
	if diff := sum - agg.Sum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("labeled wait sum %.12f != unlabeled %.12f", sum, agg.Sum)
	}

	formed := reg.Counter(obs.MetricBatchFormed).Value()
	if formed == 0 {
		t.Fatal("no batches formed")
	}
	aggRows := reg.Counter(obs.MetricBatchRows).Value()
	cv := reg.CounterVec(obs.MetricBatchRows, "client")
	var labeledRows int64
	for _, l := range cv.Labels() {
		c, ok := cv.Get(l)
		if !ok {
			t.Fatalf("label %q listed but not gettable", l)
		}
		labeledRows += c.Value()
	}
	if labeledRows != aggRows || aggRows == 0 {
		t.Errorf("batch rows labeled Σ=%d unlabeled=%d", labeledRows, aggRows)
	}
	// 8 clients × 3 iterations × 2 phases, batch rows = workload batch.
	wantRows := int64(8 * 3 * 2 * memmodel.PaperOPTWorkload().Batch)
	if aggRows != wantRows {
		t.Errorf("batch rows = %d, want %d", aggRows, wantRows)
	}
	// Per-client compute: the row share of every batched invocation.
	for _, u := range ledgerRows(reg) {
		if u.ComputeSeconds <= 0 {
			t.Errorf("%s: no compute billed", u.ID)
		}
	}
	// With MaxSize 4 and 8 lockstep clients, batches should fill: mean
	// batch size well above the serial degenerate 1.
	size := reg.Histogram(obs.MetricBatchSize, nil).Snapshot()
	if size.Count != formed {
		t.Errorf("size histogram count %d != formed %d", size.Count, formed)
	}
	if mean := size.Sum / float64(size.Count); mean < 2 {
		t.Errorf("mean batch size %.2f, want ≥ 2 for lockstep clients", mean)
	}
}

// TestShedMemberLeavesTheKernel: a member admission control sheds from
// a throttled batch of two does not ride the batched kernel. The batch
// runs its one remaining member for exactly that member's serial
// duration — a batch of one is the serial path — which bills it all as
// compute and nothing as a stall.
func TestShedMemberLeavesTheKernel(t *testing.T) {
	cfg := batchedCfg(2, 2)
	cfg.SLO = sched.SLO{TargetP99: time.Second}
	r := setUp(t, cfg)
	k, srv := r.kernel, r.servers[0]
	sch := srv.scheduler
	a, b := &r.clients[0], &r.clients[1]
	const dur = 100 * time.Millisecond
	member := func(c *menosClient) *simMember {
		return &simMember{id: c.id, handle: c.member.handle, bytes: 1, rows: 1, dur: dur, sig: k.NewSignal(), then: func() {}}
	}
	ma, mb := member(a), member(b)
	grant := func(id string) {
		t.Helper()
		if err := sch.Submit(id, sched.KindForward, 1, func() {}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sch.Complete(id)
	}
	k.After(0, func() {
		// Both clients are made resident, then a request waits for every
		// byte left behind a one-byte hold.
		grant(a.id)
		grant(b.id)
		if err := sch.Submit("hold", sched.KindForward, 1, func() {}); err != nil {
			t.Fatal(err)
		}
		if err := sch.Submit("waiter", sched.KindBackward, sch.Available()+1, func() {}); err != nil {
			t.Fatal(err)
		}
	})
	k.After(800*time.Millisecond, func() {
		// The waiter, 0.8 SLO old, throttles the server. B's record takes
		// a throttled submission of its own, so the batch sheds B.
		grant(b.id)
		if st := sch.Load().Admission; st != sched.StateThrottled {
			t.Fatalf("admission state %v, want throttled", st)
		}
		key := batch.Key{Kind: sched.KindForward}
		r.batcher.join(srv, key, ma)
		r.batcher.join(srv, key, mb)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ma.shed != nil || ma.err != nil {
		t.Fatalf("A: shed %v, err %v; want it run", ma.shed, ma.err)
	}
	if mb.shed == nil {
		t.Fatal("B was not shed from the throttled batch")
	}
	if ma.compute != dur || ma.stall != 0 {
		t.Errorf("A alone in its batch: compute %v, stall %v; want its serial %v and no stall", ma.compute, ma.stall, dur)
	}
}
