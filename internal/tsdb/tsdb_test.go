package tsdb

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAppendQueryRoundTrip(t *testing.T) {
	s := New(Config{})
	id := SeriesID{Name: "m", Server: 1}
	for i := 0; i < 5; i++ {
		if !s.Append(id, time.Duration(i)*time.Second, float64(i)) {
			t.Fatalf("append %d dropped", i)
		}
	}
	res := s.Query("m", 0, time.Hour)
	if len(res) != 1 || len(res[0].Points) != 5 {
		t.Fatalf("query = %+v, want 1 series x 5 points", res)
	}
	if p, ok := s.Last(id); !ok || !approx(p.Value, 4) {
		t.Fatalf("Last = %v %v, want 4", p, ok)
	}
	if _, ok := s.Last(SeriesID{Name: "m", Server: 2}); ok {
		t.Fatal("Last on absent series should report !ok")
	}
}

func TestDownsampleAndRetentionBounds(t *testing.T) {
	cfg := Config{Retention: 15 * time.Minute}
	s := New(cfg)
	id := SeriesID{Name: "m", Server: 1}
	// One sample per second for an hour: far beyond retention.
	for i := 0; i < 60*60; i++ {
		s.Append(id, time.Duration(i)*time.Second, float64(i))
	}
	sr := s.series[id]
	// Raw ring holds at most RawWindow of samples.
	if n := len(sr.raw); n == 0 || time.Duration(n)*time.Second > RawWindow+time.Second {
		t.Fatalf("raw ring %d samples, want <= %v worth", n, RawWindow)
	}
	// Downsampled ring holds at most Retention/resolution buckets.
	maxBuckets := int(cfg.Retention/resolution) + 1
	if n := len(sr.down); n == 0 || n > maxBuckets {
		t.Fatalf("down ring %d buckets, want 1..%d", n, maxBuckets)
	}
	// Nothing older than Retention survives.
	latest := s.latest
	for _, b := range sr.down {
		if b.Start+resolution <= latest-cfg.Retention {
			t.Fatalf("bucket at %v survived retention (latest %v)", b.Start, latest)
		}
	}
	// Buckets aggregate correctly: each full bucket holds resolution
	// worth of consecutive integers, so Avg is the midpoint and
	// Max-Min spans the count. The newest bucket may be partial — the
	// fold boundary (latest-RawWindow) can land mid-bucket.
	for i, b := range sr.down {
		if i == len(sr.down)-1 {
			break
		}
		if b.Count != int64(resolution/time.Second) {
			t.Fatalf("bucket count %d, want %d", b.Count, resolution/time.Second)
		}
		if b.Max-b.Min != float64(b.Count-1) {
			t.Fatalf("bucket min/max %v/%v span wrong for count %d", b.Min, b.Max, b.Count)
		}
		if want := (b.Min + b.Max) / 2; !approx(b.Avg(), want) {
			t.Fatalf("bucket avg %v, want %v", b.Avg(), want)
		}
	}
}

func TestMaxRawPointsCapsRing(t *testing.T) {
	s := New(Config{})
	id := SeriesID{Name: "m"}
	// All samples within a few seconds: the RawWindow cut never fires,
	// only the point cap can bound the ring.
	const n = 3 * maxRawPoints
	for i := 0; i < n; i++ {
		s.Append(id, time.Duration(i)*time.Millisecond, 1)
	}
	if got := len(s.series[id].raw); got > maxRawPoints {
		t.Fatalf("raw ring %d points, cap %d", got, maxRawPoints)
	}
	// Folded samples are still accounted for in buckets.
	var count int64
	for _, b := range s.series[id].down {
		count += b.Count
	}
	count += int64(len(s.series[id].raw))
	if count != n {
		t.Fatalf("samples accounted %d, want %d", count, n)
	}
}

func TestSeriesCardinalityCap(t *testing.T) {
	s := New(Config{})
	const over = 7
	for i := 0; i < maxSeries+over; i++ {
		s.Append(SeriesID{Name: "m", Server: i}, 0, 1)
	}
	n, samples, dropped := s.Stats()
	if n != maxSeries || samples != maxSeries || dropped != over {
		t.Fatalf("stats = %d series %d samples %d dropped, want %d/%d/%d", n, samples, dropped, maxSeries, maxSeries, over)
	}
	// Existing series still accept appends at the cap.
	if !s.Append(SeriesID{Name: "m", Server: 0}, time.Second, 2) {
		t.Fatal("append to existing series dropped at cap")
	}
}

func TestOutOfOrderClamped(t *testing.T) {
	s := New(Config{})
	id := SeriesID{Name: "m"}
	s.Append(id, 10*time.Second, 1)
	s.Append(id, 5*time.Second, 2) // clamped to 10s
	sr := s.series[id]
	if sr.raw[1].At != 10*time.Second {
		t.Fatalf("out-of-order sample at %v, want clamped to 10s", sr.raw[1].At)
	}
}

func TestAvgOver(t *testing.T) {
	s := New(Config{})
	id := SeriesID{Name: "m"}
	// 1..1200 at 1s spacing; samples older than RawWindow fold into
	// buckets.
	for i := 1; i <= 1200; i++ {
		s.Append(id, time.Duration(i)*time.Second, float64(i))
	}
	if len(s.series[id].down) == 0 {
		t.Fatal("nothing folded into buckets")
	}
	// Whole-range mean must weigh buckets by count: mean of 1..1200.
	if avg, ok := s.AvgOver(id, 0, time.Hour); !ok || !approx(avg, 600.5) {
		t.Fatalf("AvgOver = %v %v, want 600.5", avg, ok)
	}
	if _, ok := s.AvgOver(id, time.Hour, 2*time.Hour); ok {
		t.Fatal("AvgOver over empty range should report !ok")
	}
}

func TestIncreaseCounterResets(t *testing.T) {
	s := New(Config{})
	id := SeriesID{Name: "c"}
	vals := []float64{10, 15, 20, 3, 8} // reset between 20 and 3
	for i, v := range vals {
		s.Append(id, time.Duration(i)*time.Second, v)
	}
	// 5 + 5 + (reset: +3) + 5 = 18
	if inc, ok := s.Increase(id, 0, time.Hour); !ok || !approx(inc, 18) {
		t.Fatalf("Increase = %v %v, want 18", inc, ok)
	}
	// Sub-range seeds baseline from the sample before `from`:
	// from=1.5s..end covers 20,3,8 with baseline 15 → 5+3+5 = 13.
	if inc, ok := s.Increase(id, 1500*time.Millisecond, time.Hour); !ok || !approx(inc, 13) {
		t.Fatalf("Increase(sub) = %v %v, want 13", inc, ok)
	}
	if _, ok := s.Increase(id, time.Hour, 2*time.Hour); ok {
		t.Fatal("Increase over empty range should report !ok")
	}
}

func TestNamesAndServers(t *testing.T) {
	s := New(Config{})
	s.Append(SeriesID{Name: "b", Server: 2}, 0, 1)
	s.Append(SeriesID{Name: "a", Server: 1}, 0, 1)
	s.Append(SeriesID{Name: "a", Server: 3}, 0, 1)
	s.Append(SeriesID{Name: "a", Server: 3, Client: "t1"}, 0, 1)
	if got := s.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v", got)
	}
	// Servers excludes per-client series.
	if got := s.Servers("a"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Servers = %v", got)
	}
}

func TestQueryDeterministicOrder(t *testing.T) {
	s := New(Config{})
	ids := []SeriesID{
		{Name: "m", Server: 2, Client: "z"},
		{Name: "m", Server: 2, Client: "a"},
		{Name: "m", Server: 1},
	}
	for _, id := range ids {
		s.Append(id, 0, 1)
	}
	res := s.Query("m", 0, time.Hour)
	want := []SeriesID{{Name: "m", Server: 1}, {Name: "m", Server: 2, Client: "a"}, {Name: "m", Server: 2, Client: "z"}}
	if len(res) != len(want) {
		t.Fatalf("got %d series", len(res))
	}
	for i := range want {
		if res[i].ID != want[i] {
			t.Fatalf("series %d = %v, want %v", i, res[i].ID, want[i])
		}
	}
}

func TestSeriesIDString(t *testing.T) {
	cases := []struct {
		id   SeriesID
		want string
	}{
		{SeriesID{Name: "m"}, "m"},
		{SeriesID{Name: "m", Server: 3}, "m{server=3}"},
		{SeriesID{Name: "m", Server: 3, Client: "c1"}, `m{server=3,client="c1"}`},
	}
	for _, c := range cases {
		if got := c.id.String(); got != c.want {
			t.Fatalf("String(%+v) = %q, want %q", c.id, got, c.want)
		}
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	if s.Append(SeriesID{Name: "m"}, 0, 1) {
		t.Fatal("nil Append should drop")
	}
	if got := s.Query("m", 0, time.Hour); got != nil {
		t.Fatalf("nil Query = %v", got)
	}
	if _, ok := s.Last(SeriesID{Name: "m"}); ok {
		t.Fatal("nil Last ok")
	}
	if _, ok := s.AvgOver(SeriesID{Name: "m"}, 0, 1); ok {
		t.Fatal("nil AvgOver ok")
	}
	if _, ok := s.Increase(SeriesID{Name: "m"}, 0, 1); ok {
		t.Fatal("nil Increase ok")
	}
	if s.Names() != nil || s.Servers("m") != nil {
		t.Fatal("nil listings should be empty")
	}
}

// TestConcurrentScrapeQuery is the -race hammer: writers appending like
// a scrape loop while readers run every query path.
func TestConcurrentScrapeQuery(t *testing.T) {
	// At one sample a second, each series outlives RawWindow and the
	// shortest Retention, so writers fold and evict while readers scan.
	s := New(Config{Retention: RawWindow})
	var wg sync.WaitGroup
	const writers, readers, iters = 4, 4, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := SeriesID{Name: "m", Server: w}
			cid := SeriesID{Name: "mc", Server: w, Client: fmt.Sprintf("c%d", w)}
			for i := 0; i < iters; i++ {
				at := time.Duration(i) * time.Second
				s.Append(id, at, float64(i))
				s.Append(cid, at, float64(i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			id := SeriesID{Name: "m", Server: r}
			for i := 0; i < iters; i++ {
				s.Query("m", 0, time.Hour)
				s.Last(id)
				s.AvgOver(id, 0, time.Hour)
				s.Increase(id, 0, time.Hour)
				s.Names()
				s.Servers("m")
				s.Stats()
			}
		}(r)
	}
	wg.Wait()
	if n, _, _ := s.Stats(); n != 2*writers {
		t.Fatalf("series count %d, want %d", n, 2*writers)
	}
}
