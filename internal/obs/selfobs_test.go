package obs

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightAsyncBurstRotation hammers the recorder from concurrent
// TriggerAsync callers (the shape of a real shedding storm) and then
// drives rotation to completion, asserting the size bound and the
// single-.1 rotation scheme hold. Run under -race this also proves the
// trigger path is data-race free.
func TestFlightAsyncBurstRotation(t *testing.T) {
	dir := t.TempDir()
	fr, err := NewFlightRecorder(FlightConfig{
		Dir:         dir,
		MinInterval: time.Nanosecond,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr.maxBytes = 4096 // rotate within a few dozen records, not 8 MiB

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Distinct reasons per goroutine defeat the per-reason rate
			// limiter, maximizing concurrent write pressure.
			reason := fmt.Sprintf("burst-%d", g)
			for i := 0; i < 200; i++ {
				fr.TriggerAsync(reason)
			}
		}(g)
	}
	wg.Wait()

	// Force rotation deterministically: synchronous triggers until the
	// rotated file appears.
	rotated := filepath.Join(dir, "flight.jsonl.1")
	for i := 0; i < 2000; i++ {
		if err := fr.Trigger(fmt.Sprintf("force-%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(rotated); err == nil {
			break
		}
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}

	st1, err := os.Stat(rotated)
	if err != nil {
		t.Fatalf("rotation never happened: %v", err)
	}
	st0, err := os.Stat(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if st0.Size() > 4096 || st1.Size() > 4096 {
		t.Fatalf("size bound violated: active=%d rotated=%d, max 4096", st0.Size(), st1.Size())
	}
	// Exactly one rotation generation exists.
	if _, err := os.Stat(rotated + ".1"); err == nil {
		t.Fatal("unexpected second rotation generation")
	}
}

func TestFlightCaptureProfiles(t *testing.T) {
	dir := t.TempDir()
	fr, err := NewFlightRecorder(FlightConfig{
		Dir:             dir,
		CaptureProfiles: true,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Trigger(FlightReasonShed); err != nil {
		t.Fatal(err)
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"heap-shed.pb.gz", "goroutine-shed.pb.gz"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", name)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"profiles":["heap-shed.pb.gz","goroutine-shed.pb.gz"]`) {
		t.Fatalf("record does not reference profiles: %s", data)
	}
}

func TestTraceEndpointRejectsMalformedParams(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk)
	tr.RecordT("t", SpanKind{"n", "c"}, 0, 0, time.Millisecond)
	h := Handler(nil, tr)

	bad := []string{
		"/trace?window=",    // empty value is malformed, not "no filter"
		"/trace?window=abc", // not a duration
		"/trace?window=-5s", // non-positive window
		"/trace?window=0s",  // non-positive window
	}
	for _, url := range bad {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 400 {
			t.Fatalf("GET %s = %d, want 400", url, rec.Code)
		}
	}
	good := []string{"/trace", "/trace?window=5s"}
	for _, url := range good {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d, want 200", url, rec.Code)
		}
	}
}

func TestHandlerLoadzAndPprof(t *testing.T) {
	h := Handler(nil, nil,
		WithLoadz(func() any { return map[string]int{"queue_depth": 3} }),
		WithPprof())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/loadz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"queue_depth": 3`) {
		t.Fatalf("/loadz = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/loadz content-type = %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", rec.Code)
	}

	// Without the options, neither endpoint exists.
	bare := Handler(nil, nil)
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/loadz", nil))
	if rec.Code != 404 {
		t.Fatalf("/loadz without WithLoadz = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/pprof/ without WithPprof = %d, want 404", rec.Code)
	}
}
