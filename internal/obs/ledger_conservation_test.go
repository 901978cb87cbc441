package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLedgerConcurrentConservation hammers one ledger from several
// writers, on more clients than it has accounts for, while a reader
// snapshots it. Every row must equal its family series, and the rows
// must add up to exactly what was written: no count is lost or billed
// twice, whichever account a client lands in. The values are binary
// fractions, so float sums are exact in any order.
func TestLedgerConcurrentConservation(t *testing.T) {
	const (
		writers    = 4
		rounds     = 300
		maxClients = 5
	)
	ids := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11"}
	var tick atomic.Int64
	clock := ClockFunc(func() time.Duration { return time.Duration(tick.Add(int64(time.Millisecond))) })
	reg := NewRegistry()
	l := NewLedger(LedgerConfig{Clock: clock, MaxClients: maxClients, Metrics: reg})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	read := make(chan int)
	go func() {
		snaps := 0
		for {
			select {
			case <-stop:
				read <- snaps
				return
			default:
			}
			for _, row := range l.Snapshot() {
				if row.PersistentBytes < 0 || row.TransientBytes < 0 {
					t.Errorf("row %s holds negative bytes: %+v", row.ID, row)
				}
			}
			snaps++
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := ids[(w*7+i)%len(ids)]
				l.Hold(c, true, 10)
				l.Hold(c, false, 7)
				l.AddCompute(c, 0.25)
				l.AddGrantWait(c, 0.5)
				l.AddIteration(c)
				l.AddWire(c, 3, 5)
				l.AddBatchRows(c, 2)
				l.Shed(c)
				l.Retry(c)
				l.Revoke(c)
				l.Hold(c, false, -7)
				l.Hold(c, true, -10)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if <-read == 0 {
		t.Error("reader never completed a snapshot")
	}

	rows := l.Snapshot()
	if len(rows) != maxClients+1 {
		t.Fatalf("%d rows, want %d accounts and the overflow row", len(rows), maxClients)
	}
	var total ClientUsage
	for _, u := range rows {
		count := func(name string) int64 {
			c, _ := reg.CounterVec(name, "client").Get(u.ID)
			return c.Value()
		}
		sum := func(name string) float64 {
			h, _ := reg.HistogramVec(name, "client", nil).Get(u.ID)
			return h.Sum()
		}
		for _, f := range []struct {
			what      string
			row, want float64
		}{
			{"compute seconds", u.ComputeSeconds, sum(MetricServerComputeSeconds)},
			{"grant wait seconds", u.GrantWaitSeconds, sum(MetricSchedWaitSeconds)},
			{"iterations", float64(u.Iterations), float64(count(MetricServerIterations))},
			{"wire tx", float64(u.WireTxBytes), float64(count(MetricServerWireTxBytes))},
			{"wire rx", float64(u.WireRxBytes), float64(count(MetricServerWireRxBytes))},
			{"batch rows", float64(u.BatchRows), float64(count(MetricBatchRows))},
			{"sheds", float64(u.Sheds), float64(count(MetricServerShedsTotal))},
			{"revocations", float64(u.Revocations), float64(count(MetricSchedRevocations))},
			{"persistent byte-seconds", float64(int64(u.PersistentByteSeconds)), float64(count(MetricGPUPersistentByteSeconds))},
			{"transient byte-seconds", float64(int64(u.TransientByteSeconds)), float64(count(MetricGPUTransientByteSeconds))},
		} {
			if f.row != f.want {
				t.Errorf("row %s: %s %v, family series %v", u.ID, f.what, f.row, f.want)
			}
		}
		if u.PersistentBytes != 0 || u.TransientBytes != 0 {
			t.Errorf("row %s still holds %d/%d bytes after every release", u.ID, u.PersistentBytes, u.TransientBytes)
		}
		total.ComputeSeconds += u.ComputeSeconds
		total.GrantWaitSeconds += u.GrantWaitSeconds
		total.WireTxBytes += u.WireTxBytes
		total.WireRxBytes += u.WireRxBytes
		total.Iterations += u.Iterations
		total.BatchRows += u.BatchRows
		total.Sheds += u.Sheds
		total.Retries += u.Retries
		total.Revocations += u.Revocations
	}
	const n = writers * rounds
	want := ClientUsage{
		ComputeSeconds: 0.25 * n, GrantWaitSeconds: 0.5 * n,
		WireTxBytes: 3 * n, WireRxBytes: 5 * n,
		Iterations: n, BatchRows: 2 * n, Sheds: n, Retries: n, Revocations: n,
	}
	if total != want {
		t.Errorf("row totals %+v, want %+v", total, want)
	}
}
