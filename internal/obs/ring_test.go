package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRingEviction: ring mode keeps the newest spans, never exceeds the
// byte budget, and counts every eviction.
func TestRingEviction(t *testing.T) {
	tr := NewTracer(&manualClock{})
	budget := int64(300) // ~4 spans of cost 64+3
	tr.SetRingBytes(budget)
	const n = 100
	for i := 0; i < n; i++ {
		tr.RecordT("c", SpanKind{"s", "x"}, 0, time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	if got := ringBytes(tr); got > budget {
		t.Fatalf("ring bytes %d over budget %d", got, budget)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("ring evicted everything")
	}
	if int64(tr.Dropped()) != int64(n-len(spans)) {
		t.Fatalf("dropped %d, want %d", tr.Dropped(), n-len(spans))
	}
	// Newest span always survives, and seqs stay contiguous newest-last.
	if last := spans[len(spans)-1].Seq; last != n {
		t.Fatalf("newest seq %d, want %d", last, n)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("seq gap in live buffer: %d -> %d", spans[i-1].Seq, spans[i].Seq)
		}
	}
}

// TestRingKeepsNewest: a budget smaller than one span still retains the
// most recent span, so /trace is never empty on a live server.
func TestRingKeepsNewest(t *testing.T) {
	tr := NewTracer(&manualClock{})
	tr.SetRingBytes(1)
	tr.RecordT("client-1", SpanKind{"forward", "compute"}, 0, 0, time.Second)
	tr.RecordT("client-1", SpanKind{"backward", "compute"}, 0, time.Second, time.Second)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "backward" {
		t.Fatalf("spans = %+v, want just the newest", spans)
	}
}

// TestSpansWindow: the trailing window filters by span end time, on the
// tracer clock when present and the latest span end otherwise.
func TestSpansWindow(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk)
	tr.RecordT("c", SpanKind{"old", "x"}, 0, 0, time.Second)
	tr.RecordT("c", SpanKind{"new", "x"}, 0, 9*time.Second, time.Second)
	clk.t = 10 * time.Second
	got := tr.SpansWindow(5 * time.Second)
	if len(got) != 1 || got[0].Name != "new" {
		t.Fatalf("window spans = %+v", got)
	}
	if all := tr.SpansWindow(0); len(all) != 2 {
		t.Fatalf("window<=0 returned %d spans, want all", len(all))
	}

	// Nil clock (offline/simulator dumps): anchored at max span end.
	off := NewTracer(nil)
	off.RecordT("c", SpanKind{"old", "x"}, 0, 0, time.Second)
	off.RecordT("c", SpanKind{"new", "x"}, 0, 99*time.Second, time.Second)
	if got := off.SpansWindow(5 * time.Second); len(got) != 1 || got[0].Name != "new" {
		t.Fatalf("nil-clock window spans = %+v", got)
	}
}

// TestRingHammer races writers against a /trace reader and asserts the
// two load-bearing invariants under contention: the byte budget is
// never exceeded, and every read sees each seq at most once, in order.
// Run with -race (make test-race).
func TestRingHammer(t *testing.T) {
	tr := NewTracer(NewWallClock())
	const budget = 16 << 10
	tr.SetRingBytes(budget)

	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Reader: copies the live spans like a /trace request.
	pagerDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				pagerDone <- nil
				return
			default:
			}
			if b := ringBytes(tr); b > budget {
				pagerDone <- errInvariant("ring bytes over budget")
				return
			}
			var last uint64
			for _, s := range tr.Spans() {
				if s.Seq <= last {
					pagerDone <- errInvariant("duplicate or out-of-order seq")
					return
				}
				last = s.Seq
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.RecordT("client", SpanKind{"span", "compute"}, uint64(w*perWriter+i+1),
					time.Duration(i)*time.Microsecond, time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-pagerDone; err != nil {
		t.Fatal(err)
	}

	if b := ringBytes(tr); b > budget {
		t.Fatalf("final ring bytes %d over budget %d", b, budget)
	}
	total := int64(writers * perWriter)
	if got := int64(tr.Len()) + tr.Dropped(); got != total {
		t.Fatalf("live %d + dropped %d != recorded %d", tr.Len(), tr.Dropped(), total)
	}
}

type errInvariant string

func (e errInvariant) Error() string { return string(e) }

// ringBytes reads the ring's byte accounting under the tracer's lock.
func ringBytes(t *Tracer) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.curBytes
}
