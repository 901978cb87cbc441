package sched

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"menos/internal/obs"
)

// TestSubmitBatchGrantsAndBills: an aggregate batch request is granted
// atomically, every member is billed its own byte share and grant
// wait, and the unlabeled wait histogram sees one observation per
// member so Σ{client=*} still reproduces it.
func TestSubmitBatchGrantsAndBills(t *testing.T) {
	reg := obs.NewRegistry()
	clk := &fakeClock{}
	s := New(100, PolicyFCFSBackfill)
	s.Instrument(reg, clk)
	led := obs.NewLedger(obs.LedgerConfig{Clock: clk})
	led.Instrument(reg)
	s.SetLedger(led)

	var c collector
	mustSubmit(t, s, "hog", KindBackward, 90, c.grant("hog"))
	members := []BatchMember{{"a", 20}, {"b", 30}, {"c", 10}}
	if err := s.SubmitBatch("batch-1", KindBackward, members, c.grant("batch-1")); err != nil {
		t.Fatal(err)
	}
	if got := c.got(); len(got) != 1 {
		t.Fatalf("batch granted before memory freed: %v", got)
	}

	clk.now = 4 * time.Second
	s.Complete("hog")
	if got := c.got(); len(got) != 2 || got[1] != "batch-1" {
		t.Fatalf("order = %v", got)
	}
	if allocated(s, "batch-1") != 60 {
		t.Fatalf("batch allocation = %d, want 60", allocated(s, "batch-1"))
	}
	for _, m := range members {
		u, ok := led.Usage(m.ClientID)
		if !ok {
			t.Fatalf("no ledger account for member %q", m.ClientID)
		}
		if u.TransientBytes != m.Bytes {
			t.Errorf("%s transient bytes = %d, want %d", m.ClientID, u.TransientBytes, m.Bytes)
		}
		if math.Abs(u.GrantWaitSeconds-4) > 1e-12 {
			t.Errorf("%s grant wait = %v, want 4s", m.ClientID, u.GrantWaitSeconds)
		}
	}

	// One unlabeled wait observation per member plus one for hog, and
	// the labeled family sums back to the aggregate (conservation).
	agg := reg.Histogram(obs.MetricSchedWaitSeconds, nil).Snapshot()
	if agg.Count != 4 {
		t.Fatalf("unlabeled wait count = %d, want 4", agg.Count)
	}
	hv := reg.HistogramVec(obs.MetricSchedWaitSeconds, "client", obs.DurationBuckets())
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
	if count != agg.Count {
		t.Errorf("labeled wait count %d != unlabeled %d", count, agg.Count)
	}
	if math.Abs(sum-agg.Sum) > 1e-9*math.Max(1, math.Abs(agg.Sum)) {
		t.Errorf("labeled wait sum %.12f != unlabeled %.12f", sum, agg.Sum)
	}

	// Completing the batch releases every member's share.
	if reclaimed := s.Complete("batch-1"); reclaimed != 60 {
		t.Fatalf("reclaimed = %d, want 60", reclaimed)
	}
	for _, m := range members {
		if u, _ := led.Usage(m.ClientID); u.TransientBytes != 0 {
			t.Errorf("%s transient bytes after complete = %d", m.ClientID, u.TransientBytes)
		}
	}
	if s.Available() != 100 {
		t.Fatalf("available = %d, want 100", s.Available())
	}
}

// TestSubmitBatchRejections covers the batch-specific reject paths.
func TestSubmitBatchRejections(t *testing.T) {
	s := New(100, PolicyFCFS)
	var c collector

	if err := s.SubmitBatch("b0", KindForward, nil, c.grant("b0")); err == nil {
		t.Error("empty batch accepted")
	}
	err := s.SubmitBatch("b1", KindForward, []BatchMember{{"a", 60}, {"b", 60}}, c.grant("b1"))
	if !errors.Is(err, ErrNeverFits) {
		t.Errorf("oversized batch: err = %v, want ErrNeverFits", err)
	}
	err = s.SubmitBatch("b2", KindForward, []BatchMember{{"x", 5}, {"x", 5}}, c.grant("b2"))
	if !errors.Is(err, ErrOutstanding) {
		t.Errorf("duplicate member: err = %v, want ErrOutstanding", err)
	}

	mustSubmit(t, s, "a", KindForward, 10, c.grant("a"))
	err = s.SubmitBatch("b3", KindForward, []BatchMember{{"a", 5}}, c.grant("b3"))
	if !errors.Is(err, ErrOutstanding) {
		t.Errorf("member with live allocation: err = %v, want ErrOutstanding", err)
	}
	s.Complete("a")

	// Fill memory, queue a batch carrying x, then try to queue x again
	// in a second batch: the member-in-queued-batch check must fire.
	mustSubmit(t, s, "hog", KindBackward, 100, c.grant("hog"))
	if err := s.SubmitBatch("b4", KindForward, []BatchMember{{"x", 20}}, c.grant("b4")); err != nil {
		t.Fatal(err)
	}
	err = s.SubmitBatch("b5", KindForward, []BatchMember{{"x", 5}}, c.grant("b5"))
	if !errors.Is(err, ErrOutstanding) {
		t.Errorf("member queued in another batch: err = %v, want ErrOutstanding", err)
	}

	// The rule holds across both entry points and for the whole life of
	// the batch: x may not submit on its own, nor ride a second batch,
	// while b4 is queued, nor after b4 is granted, until Complete(b4).
	outstanding := func(when string) {
		t.Helper()
		if err := s.Submit("x", KindForward, 5, c.grant("x")); !errors.Is(err, ErrOutstanding) {
			t.Errorf("Submit(x) while b4 is %s: err = %v, want ErrOutstanding", when, err)
		}
		err := s.SubmitBatch("b6", KindForward, []BatchMember{{"y", 5}, {"x", 5}}, c.grant("b6"))
		if !errors.Is(err, ErrOutstanding) {
			t.Errorf("SubmitBatch(b6,{y,x}) while b4 is %s: err = %v, want ErrOutstanding", when, err)
		}
		if err := s.SubmitBatch("b4", KindForward, []BatchMember{{"z", 5}}, c.grant("b4")); !errors.Is(err, ErrOutstanding) {
			t.Errorf("second batch named b4 while b4 is %s: err = %v, want ErrOutstanding", when, err)
		}
	}
	outstanding("queued")
	s.Complete("hog")
	if allocated(s, "b4") != 20 {
		t.Fatalf("b4 not granted after hog completed (allocated %d)", allocated(s, "b4"))
	}
	outstanding("granted")
	// A member's ID names no allocation of its own: completing it must
	// not release the batch it rides.
	if got := s.Complete("x"); got != 0 || allocated(s, "b4") != 20 {
		t.Errorf("Complete(x) reclaimed %d and left b4 with %d, want 0 and 20", got, allocated(s, "b4"))
	}
	s.Complete("b4")
	mustSubmit(t, s, "x", KindForward, 5, c.grant("x"))
	s.Complete("x")
	if err := s.SubmitBatch("b6", KindForward, []BatchMember{{"y", 5}, {"x", 5}}, c.grant("b6")); err != nil {
		t.Errorf("x rejected after its batch and its own request completed: %v", err)
	}
}

// TestPlainCycleAllocs pins the heap cost of the uncontended serial
// Submit→grant→Complete cycle at nothing: the request comes back from
// the scheduler's free list and the grant list lives on the stack, so
// carrying a member share on every request stays free. sim_fleet runs
// hundreds of thousands of these per window.
func TestPlainCycleAllocs(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	if err := s.Reserve("persist:a", 10); err != nil {
		t.Fatal(err)
	}
	grant := func() {}
	got := testing.AllocsPerRun(1000, func() {
		if err := s.Submit("a", KindForward, 40, grant); err != nil {
			t.Fatal(err)
		}
		s.Complete("a")
	})
	if got > 0 {
		t.Errorf("plain Submit→Complete cycle allocates %v objects, want 0", got)
	}
	// 128 bytes is the request's size class: a field more moves every
	// request of every plane, and the free list, to the 144-byte class.
	if sz := unsafe.Sizeof(request{}); sz > 128 {
		t.Errorf("request is %d bytes, want at most 128", sz)
	}
}

// batchCycle returns one uncontended 8-member SubmitBatch→grant→Complete
// cycle on s, the shape of a full sim_fleet batch: members that have all
// been granted before, under a batch ID of its own.
func batchCycle(tb testing.TB, s *Scheduler) func() {
	members := make([]BatchMember, 8)
	for i := range members {
		members[i] = BatchMember{ClientID: fmt.Sprintf("m%d", i), Bytes: 5}
	}
	grant := func() {}
	return func() {
		if err := s.SubmitBatch("batch", KindForward, members, grant); err != nil {
			tb.Fatal(err)
		}
		s.Complete("batch")
	}
}

// TestBatchCycleAllocs pins the heap cost of the uncontended batched
// cycle at nothing. The members' records are looked up, marked resident
// and released through pointers; the request, the batch ID's record and
// the batch's record list are reused; and the grant list lives on the
// stack.
func TestBatchCycleAllocs(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	if got := testing.AllocsPerRun(1000, batchCycle(t, s)); got > 0 {
		t.Errorf("8-member SubmitBatch→Complete cycle allocates %v objects, want 0", got)
	}
	if st := s.Stats(); st.Identities != 8 {
		t.Errorf("identity table holds %d records after the cycles, want the 8 resident members", st.Identities)
	}
}

// BenchmarkSchedulerCycle times one uncontended grant cycle: a plain
// Submit→Complete and an 8-member SubmitBatch→Complete.
//
//	go test -run '^$' -bench SchedulerCycle ./internal/sched
func BenchmarkSchedulerCycle(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		s := New(100, PolicyFCFSBackfill)
		grant := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Submit("a", KindForward, 40, grant); err != nil {
				b.Fatal(err)
			}
			s.Complete("a")
		}
	})
	b.Run("batch8", func(b *testing.B) {
		b.ReportAllocs()
		cycle := batchCycle(b, New(100, PolicyFCFSBackfill))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	})
}

// TestIdentityTableOnlyHoldsWhatItNeeds: a reservation leaves no record
// behind, a batch ID's record goes at release, a granted client's stays
// (it is resident) until Forget, and Forget on an identity still held
// drops it at release instead.
func TestIdentityTableOnlyHoldsWhatItNeeds(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var c collector
	identities := func(want int, when string) {
		t.Helper()
		if got := s.Stats().Identities; got != want {
			t.Errorf("%s: %d identities, want %d", when, got, want)
		}
	}
	if err := s.Reserve("persist:a", 10); err != nil {
		t.Fatal(err)
	}
	identities(1, "reserved")
	s.Complete("persist:a")
	identities(0, "reservation completed")
	if err := s.Reserve("persist:a", 1000); !errors.Is(err, ErrNeverFits) {
		t.Fatalf("oversized reservation: err = %v", err)
	}
	identities(0, "reservation refused")

	mustSubmit(t, s, "a", KindForward, 10, c.grant("a"))
	if err := s.SubmitBatch("b1", KindForward, []BatchMember{{"x", 5}, {"y", 5}}, c.grant("b1")); err != nil {
		t.Fatal(err)
	}
	identities(4, "a, b1 and its members held")
	s.Complete("b1")
	identities(3, "b1 completed: x and y resident")
	s.Complete("a")
	identities(3, "a completed: resident")

	s.Forget("x")
	identities(2, "x forgotten")
	if err := s.SubmitBatch("b2", KindForward, []BatchMember{{"y", 5}}, c.grant("b2")); err != nil {
		t.Fatal(err)
	}
	s.Forget("y") // held by b2: kept until b2 releases it
	identities(3, "y forgotten while b2 holds it")
	s.Complete("b2")
	identities(1, "b2 completed")
	s.Forget("a")
	s.Forget("never-seen")
	identities(0, "everyone forgotten")

	if err := s.SubmitBatch("b3", KindForward, []BatchMember{{"z", 5}, {"z", 5}}, c.grant("b3")); !errors.Is(err, ErrOutstanding) {
		t.Fatalf("duplicate member: err = %v", err)
	}
	s.Close()
	if err := s.Submit("w", KindForward, 5, c.grant("w")); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed: err = %v", err)
	}
	identities(0, "refused submissions")
}

// TestSerialRequestIsBatchOfOne drives one seeded random interleaving of
// submits, completes, oversized and duplicate requests twice — once
// through Submit(id, …), once through SubmitBatch(id, {id}) — under
// every policy with and without admission control, and requires the two
// runs to be indistinguishable: verdicts, grant order, Stats, ledger
// rows and every menos_sched_* sample.
func TestSerialRequestIsBatchOfOne(t *testing.T) {
	type outcome struct {
		verdicts []string
		grants   []string
		stats    Stats
		ledger   []obs.ClientUsage
		metrics  string
		adm      AdmissionStats
	}
	run := func(seed int64, policy Policy, slo SLO, batched bool) outcome {
		reg := obs.NewRegistry()
		clk := &fakeClock{}
		s := New(100, policy)
		s.Instrument(reg, clk)
		if err := s.EnableAdmission(slo, clk); err != nil {
			t.Fatal(err)
		}
		led := obs.NewLedger(obs.LedgerConfig{Clock: clk})
		led.Instrument(reg)
		s.SetLedger(led)
		if err := s.Reserve("persist:c0", 10); err != nil {
			t.Fatal(err)
		}

		var out outcome
		var c collector
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 400; op++ {
			clk.now += time.Duration(rng.Intn(300)) * time.Millisecond
			id := fmt.Sprintf("c%d", rng.Intn(12))
			if rng.Intn(3) == 0 {
				out.verdicts = append(out.verdicts, fmt.Sprintf("complete %s: %d", id, s.Complete(id)))
				continue
			}
			kind := KindForward
			if rng.Intn(2) == 0 {
				kind = KindBackward
			}
			bytes := int64(rng.Intn(95)) + 1 // above 90 never fits beside the reservation
			var err error
			if batched {
				err = s.SubmitBatch(id, kind, []BatchMember{{id, bytes}}, c.grant(id))
			} else {
				err = s.Submit(id, kind, bytes, c.grant(id))
			}
			out.verdicts = append(out.verdicts, fmt.Sprintf("submit %s %v %d: %v", id, kind, bytes, err))
		}
		out.grants = c.got()
		out.stats = s.Stats()
		out.ledger = led.Snapshot()
		out.adm = s.AdmissionStats()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "menos_sched_") {
				out.metrics += line + "\n"
			}
		}
		return out
	}

	slos := map[string]SLO{
		"open":      {},
		"admission": {TargetP99: 2 * time.Second, Window: 10 * time.Second},
	}
	for name, slo := range slos {
		for _, policy := range []Policy{PolicyFCFSBackfill, PolicyFCFS, PolicySmallestFirst} {
			for seed := int64(1); seed <= 8; seed++ {
				plain, batched := run(seed, policy, slo, false), run(seed, policy, slo, true)
				if plain.stats.Granted == 0 || plain.stats.Completed == 0 {
					t.Fatalf("%s/%v/seed %d: degenerate interleaving %+v", name, policy, seed, plain.stats)
				}
				// The admission row only compares the two paths if the
				// controller acts in it: it must change state and shed.
				if slo.Enabled() && (plain.adm.Transitions == 0 || plain.adm.Shed == 0) {
					t.Fatalf("%s/%v/seed %d: admission control never acted: %+v", name, policy, seed, plain.adm)
				}
				for _, f := range []struct {
					what           string
					plain, batched any
				}{
					{"verdicts", plain.verdicts, batched.verdicts},
					{"grant order", plain.grants, batched.grants},
					{"Stats", plain.stats, batched.stats},
					{"ledger rows", plain.ledger, batched.ledger},
					{"menos_sched_* samples", plain.metrics, batched.metrics},
				} {
					if !reflect.DeepEqual(f.plain, f.batched) {
						t.Errorf("%s/%v/seed %d: %s diverge\nSubmit:      %v\nSubmitBatch: %v",
							name, policy, seed, f.what, f.plain, f.batched)
					}
				}
			}
		}
	}
}

// TestBatchPolicyValidate pins the knob defaults.
func TestBatchPolicyValidate(t *testing.T) {
	if (BatchPolicy{}).Enabled() {
		t.Error("zero policy must be disabled")
	}
	if !(BatchPolicy{MaxSize: 1}).Enabled() {
		t.Error("MaxSize 1 (serial batching) must count as enabled")
	}
	if err := (BatchPolicy{MaxSize: -1}).Validate(); err == nil {
		t.Error("negative MaxSize validated")
	}
	if err := (BatchPolicy{MaxSize: 8, MaxHold: -time.Second}).Validate(); err == nil {
		t.Error("negative MaxHold validated")
	}
	if p := (BatchPolicy{MaxSize: 8}).WithDefaults(); p.MaxHold != DefaultMaxHold {
		t.Errorf("default MaxHold = %v, want %v", p.MaxHold, DefaultMaxHold)
	}
}
