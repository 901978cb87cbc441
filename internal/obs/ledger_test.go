package obs

import (
	"reflect"
	"testing"
	"time"
)

// fakeTime is a manually-advanced Clock for ledger accrual tests.
type fakeTime struct{ now time.Duration }

func (f *fakeTime) Now() time.Duration { return f.now }

func TestLedgerByteSecondsAccrual(t *testing.T) {
	clk := &fakeTime{}
	reg := NewRegistry()
	l := NewLedger(LedgerConfig{Clock: clk, Metrics: reg})

	// client-1 pins 100 bytes of persistent state at t=0 ...
	l.Hold("client-1", true, 100)
	// ... and holds a 50-byte transient grant from t=2s to t=5s.
	clk.now = 2 * time.Second
	l.Hold("client-1", false, 50)
	clk.now = 5 * time.Second
	l.Hold("client-1", false, -50)
	clk.now = 10 * time.Second
	l.Hold("client-1", true, -100)

	u, ok := l.Usage("client-1")
	if !ok {
		t.Fatal("client-1 account missing")
	}
	if u.PersistentByteSeconds != 1000 { // 100 B × 10 s
		t.Fatalf("persistent byte-seconds = %v, want 1000", u.PersistentByteSeconds)
	}
	if u.TransientByteSeconds != 150 { // 50 B × 3 s
		t.Fatalf("transient byte-seconds = %v, want 150", u.TransientByteSeconds)
	}
	if u.PersistentBytes != 0 || u.TransientBytes != 0 {
		t.Fatalf("held bytes after release = %d/%d, want 0/0", u.PersistentBytes, u.TransientBytes)
	}

	// The exported counters carry the integer-truncated accruals.
	pc, _ := reg.CounterVec(MetricGPUPersistentByteSeconds, "client").Get("client-1")
	tc, _ := reg.CounterVec(MetricGPUTransientByteSeconds, "client").Get("client-1")
	if pc.Value() != 1000 || tc.Value() != 150 {
		t.Fatalf("exported byte-seconds = %d/%d, want 1000/150", pc.Value(), tc.Value())
	}
}

func TestLedgerEventCountsAndVecs(t *testing.T) {
	clk := &fakeTime{}
	reg := NewRegistry()
	l := NewLedger(LedgerConfig{Clock: clk, Metrics: reg})

	l.AddCompute("a", 1.5)
	l.AddCompute("a", 0.5)
	l.AddGrantWait("a", 0.25)
	l.AddIteration("a")
	l.AddWire("a", 100, 200)
	l.Shed("a")
	l.Retry("a")

	u, _ := l.Usage("a")
	want := ClientUsage{
		ID: "a", ComputeSeconds: 2, GrantWaitSeconds: 0.25,
		WireTxBytes: 100, WireRxBytes: 200,
		Iterations: 1, Sheds: 1, Retries: 1,
	}
	if !reflect.DeepEqual(u, want) {
		t.Fatalf("usage = %+v, want %+v", u, want)
	}

	// Labeled families mirror the account exactly.
	ch, _ := reg.HistogramVec(MetricServerComputeSeconds, "client", nil).Get("a")
	if ch.Count() != 2 || ch.Sum() != 2 {
		t.Fatalf("compute vec = %d/%v, want 2/2", ch.Count(), ch.Sum())
	}
	ic, _ := reg.CounterVec(MetricServerIterations, "client").Get("a")
	sc, _ := reg.CounterVec(MetricServerShedsTotal, "client").Get("a")
	if ic.Value() != 1 || sc.Value() != 1 {
		t.Fatalf("iteration/shed vecs = %d/%d, want 1/1", ic.Value(), sc.Value())
	}
}

func TestLedgerOverflowAccount(t *testing.T) {
	clk := &fakeTime{}
	l := NewLedger(LedgerConfig{Clock: clk, MaxClients: 2})
	l.AddIteration("a")
	l.AddIteration("b")
	l.AddIteration("c")
	l.AddIteration("d")
	if _, ok := l.Usage("c"); ok {
		t.Fatal("client past cap must not get its own account")
	}
	other, ok := l.Usage(VecOverflowLabel)
	if !ok || other.Iterations != 2 {
		t.Fatalf("overflow account = %v %+v, want 2 iterations", ok, other)
	}
	snap := l.Snapshot()
	if len(snap) != 3 { // a, b, other
		t.Fatalf("snapshot rows = %d, want 3", len(snap))
	}
}

func TestLedgerSnapshotSortedAndAccrued(t *testing.T) {
	clk := &fakeTime{}
	l := NewLedger(LedgerConfig{Clock: clk})
	l.Hold("b", true, 10)
	l.Hold("a", true, 10)
	clk.now = 4 * time.Second
	snap := l.Snapshot()
	if len(snap) != 2 || snap[0].ID != "a" || snap[1].ID != "b" {
		t.Fatalf("snapshot order = %+v", snap)
	}
	// Snapshot accrues held bytes up to now even without a release.
	if snap[0].PersistentByteSeconds != 40 {
		t.Fatalf("accrued-to-now byte-seconds = %v, want 40", snap[0].PersistentByteSeconds)
	}
	if got := l.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot not stable at fixed clock: %+v vs %+v", got, snap)
	}
}

func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	l.Hold("a", false, 1)
	l.Hold("a", false, -1)
	l.Hold("a", true, 1)
	l.Hold("a", true, -1)
	l.AddCompute("a", 1)
	l.AddGrantWait("a", 1)
	l.AddIteration("a")
	l.AddWire("a", 1, 1)
	l.Shed("a")
	l.Retry("a")
	if got := l.Snapshot(); got == nil || len(got) != 0 {
		t.Fatalf("nil ledger snapshot = %v, want empty non-nil", got)
	}
	if _, ok := l.Usage("a"); ok {
		t.Fatal("nil ledger must report no usage")
	}
}
