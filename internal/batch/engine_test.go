package batch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"menos/internal/obs"
	"menos/internal/sched"
)

// recorder is a test executor that records every dispatched batch.
type recorder struct {
	mu      sync.Mutex
	batches [][]*Item
	delay   time.Duration
}

func (r *recorder) exec(_ Key, items []*Item) {
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	for _, it := range items {
		it.Result = it.Client
	}
	r.mu.Lock()
	r.batches = append(r.batches, items)
	r.mu.Unlock()
}

func (r *recorder) snapshot() [][]*Item {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]*Item(nil), r.batches...)
}

func newEngine(t *testing.T, rec *recorder, pol sched.BatchPolicy, maxBytes func() int64) *Engine {
	t.Helper()
	e, err := New(Config{Policy: pol, Exec: rec.exec, MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func join(t *testing.T, e *Engine, key Key, client string, rows int, bytes int64) *Item {
	t.Helper()
	it := &Item{Client: client, Rows: rows, Bytes: bytes}
	if err := e.Join(key, it); err != nil {
		t.Errorf("join %s: %v", client, err)
	}
	return it
}

// TestFullGroupDispatches: MaxSize concurrent joiners of one key come
// back in one batch, each with its result set.
func TestFullGroupDispatches(t *testing.T) {
	rec := &recorder{}
	e := newEngine(t, rec, sched.BatchPolicy{MaxSize: 3, MaxHold: time.Minute}, nil)
	key := Key{Cut: 2, Seq: 16, Kind: sched.KindForward}

	var wg sync.WaitGroup
	for _, c := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it := join(t, e, key, c, 16, 10)
			if it.Result != c {
				t.Errorf("item %s: result = %v", c, it.Result)
			}
		}()
	}
	wg.Wait()
	batches := rec.snapshot()
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("batches = %d (first size %d), want 1 of 3", len(batches), len(batches[0]))
	}
}

// TestHoldTimerFlushesPartial: a group below MaxSize dispatches once
// MaxHold elapses instead of waiting forever.
func TestHoldTimerFlushesPartial(t *testing.T) {
	rec := &recorder{}
	e := newEngine(t, rec, sched.BatchPolicy{MaxSize: 8, MaxHold: 5 * time.Millisecond}, nil)
	key := Key{Cut: 1, Seq: 8, Kind: sched.KindBackward}

	start := time.Now()
	join(t, e, key, "solo", 8, 10)
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("partial batch dispatched after %v, before the hold expired", elapsed)
	}
	batches := rec.snapshot()
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("batches = %v", batches)
	}
}

// TestKeysDoNotMix: items with different compatibility keys never
// share a batch.
func TestKeysDoNotMix(t *testing.T) {
	rec := &recorder{}
	e := newEngine(t, rec, sched.BatchPolicy{MaxSize: 2, MaxHold: 5 * time.Millisecond}, nil)

	var wg sync.WaitGroup
	for i, key := range []Key{{Cut: 1, Seq: 8, Kind: sched.KindForward}, {Cut: 2, Seq: 8, Kind: sched.KindForward}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			join(t, e, key, []string{"a", "b"}[i], 8, 10)
		}()
	}
	wg.Wait()
	for _, b := range rec.snapshot() {
		if len(b) != 1 {
			t.Fatalf("cross-key batch of size %d", len(b))
		}
	}
}

// TestCloseFlushesAndRejects: Close executes the groups still forming
// and later joins fail.
func TestCloseFlushesAndRejects(t *testing.T) {
	rec := &recorder{}
	e, err := New(Config{Policy: sched.BatchPolicy{MaxSize: 8, MaxHold: time.Minute}, Exec: rec.exec})
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Cut: 1, Seq: 8, Kind: sched.KindForward}
	done := make(chan *Item)
	go func() {
		it := &Item{Client: "pending", Rows: 8, Bytes: 1}
		e.Join(key, it)
		done <- it
	}()
	// Wait for the event itself — the joiner's group is forming — not
	// for a sleep that usually outlasts it.
	for forming := 0; forming == 0; runtime.Gosched() {
		e.mu.Lock()
		forming = len(e.former.open)
		e.mu.Unlock()
	}
	e.Close()
	it := <-done
	if it.Result != "pending" {
		t.Error("pending item not executed on close")
	}
	if err := e.Join(key, &Item{Client: "late", Rows: 1, Bytes: 1}); err != ErrClosed {
		t.Errorf("join after close: err = %v, want ErrClosed", err)
	}
}

// TestConcurrentFormationRace is the -race hammer: many goroutines
// joining across several keys while hold timers, size triggers, and
// byte budgets all fire. Every item must execute exactly once and no
// batch may exceed the policy size.
func TestConcurrentFormationRace(t *testing.T) {
	rec := &recorder{}
	var budget atomic.Int64
	budget.Store(200)
	e := newEngine(t, rec, sched.BatchPolicy{MaxSize: 4, MaxHold: time.Millisecond},
		budget.Load)
	keys := []Key{
		{Cut: 1, Seq: 8, Kind: sched.KindForward},
		{Cut: 1, Seq: 8, Kind: sched.KindBackward},
		{Cut: 3, Seq: 16, Kind: sched.KindForward, Sig: "qv"},
	}

	const goroutines, perG = 8, 40
	var executed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				it := &Item{Client: "c", Rows: 1 + i%3, Bytes: int64(20 + i%50)}
				if err := e.Join(keys[(g+i)%len(keys)], it); err != nil {
					t.Errorf("join: %v", err)
					return
				}
				if it.Result == nil {
					t.Error("item returned without result")
					return
				}
				executed.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := executed.Load(); got != goroutines*perG {
		t.Fatalf("executed %d items, want %d", got, goroutines*perG)
	}
	total := 0
	for _, b := range rec.snapshot() {
		if len(b) > 4 {
			t.Fatalf("batch of %d members exceeds MaxSize 4", len(b))
		}
		total += len(b)
	}
	if total != goroutines*perG {
		t.Fatalf("batched %d items, want %d", total, goroutines*perG)
	}
}

// TestMetricsConservation: the unlabeled rows counter equals the sum
// of the ledger's per-client menos_batch_rows_total series, and the
// occupancy/size/hold families reflect the dispatched batches.
func TestMetricsConservation(t *testing.T) {
	reg := obs.NewRegistry()
	led := obs.NewLedger(obs.LedgerConfig{})
	led.Instrument(reg)
	m := NewMetrics(reg, led, 4)

	m.Record([]MemberRows{{Client: "a", Rows: 32}, {Client: "b", Rows: 16}}, 0.001)
	m.Record([]MemberRows{{Client: "a", Rows: 32}}, 0.002)

	if v := reg.Counter(obs.MetricBatchFormed).Value(); v != 2 {
		t.Errorf("formed = %d, want 2", v)
	}
	agg := reg.Counter(obs.MetricBatchRows).Value()
	if agg != 80 {
		t.Errorf("rows total = %d, want 80", agg)
	}
	cv := reg.CounterVec(obs.MetricBatchRows, "client")
	var labeled int64
	for _, l := range cv.Labels() {
		c, ok := cv.Get(l)
		if !ok {
			t.Fatalf("label %q listed but not gettable", l)
		}
		labeled += c.Value()
	}
	if labeled != agg {
		t.Errorf("Σ labeled rows %d != unlabeled %d", labeled, agg)
	}
	if u, ok := led.Usage("a"); !ok || u.BatchRows != 64 {
		t.Errorf("ledger rows for a = %+v", u)
	}
	if snap := reg.Histogram(obs.MetricBatchSize, SizeBuckets()).Snapshot(); snap.Count != 2 || snap.Sum != 3 {
		t.Errorf("size histogram count %d sum %v, want 2 and 3", snap.Count, snap.Sum)
	}
	if v := reg.Gauge(obs.MetricBatchOccupancy).Value(); v != 250 {
		t.Errorf("occupancy = %d thousandths, want 250 (1 of 4 slots)", v)
	}
	// Nil metrics and nil ledger are safe no-ops.
	var nilM *Metrics
	nilM.Record([]MemberRows{{Client: "x", Rows: 1}}, 0)
	NewMetrics(nil, nil, 0).Record([]MemberRows{{Client: "x", Rows: 1}}, 0)
}
