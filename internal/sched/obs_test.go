package sched

import (
	"testing"
	"time"

	"menos/internal/obs"
)

// fakeClock is a manually advanced virtual clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// mustWire wires s with w or fails the test.
func mustWire(t testing.TB, s *Scheduler, w Wiring) {
	t.Helper()
	if err := s.Wire(w); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentedCountersMatchStats checks the registry view against
// the scheduler's own Stats accounting, with waits measured on the
// injected (virtual) clock.
func TestInstrumentedCountersMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	clk := &fakeClock{}
	s := New(100, PolicyFCFSBackfill)
	mustWire(t, s, Wiring{Metrics: reg, Clock: clk})
	col := &collector{}

	// a fits now; b must wait for a to complete; c backfills past b.
	mustSubmit(t, s, "a", KindForward, 80, col.grant("a"))
	clk.now = 5 * time.Second
	mustSubmit(t, s, "b", KindBackward, 60, col.grant("b"))
	mustSubmit(t, s, "c", KindForward, 20, col.grant("c"))
	clk.now = 15 * time.Second
	s.Complete("a")

	st := s.Stats()
	if v := reg.Counter(obs.MetricSchedSubmitted).Value(); v != int64(st.Submitted) {
		t.Errorf("submitted counter %d != stats %d", v, st.Submitted)
	}
	if v := reg.Counter(obs.MetricSchedGranted).Value(); v != int64(st.Granted) {
		t.Errorf("granted counter %d != stats %d", v, st.Granted)
	}
	if v := reg.Counter(obs.MetricSchedBackfilled).Value(); v != int64(st.Backfilled) {
		t.Errorf("backfilled counter %d != stats %d", v, st.Backfilled)
	}
	if v := reg.Counter(obs.MetricSchedCompleted).Value(); v != int64(st.Completed) {
		t.Errorf("completed counter %d != stats %d", v, st.Completed)
	}
	if v := reg.Gauge(obs.MetricSchedQueueDepthMax).Value(); v != int64(st.MaxQueueDepth) {
		t.Errorf("max queue depth gauge %d != stats %d", v, st.MaxQueueDepth)
	}

	// Waits on the virtual clock: a and c granted immediately (0s);
	// b waited 10 virtual seconds. No wall time is anywhere near 10s.
	snap := reg.Histogram(obs.MetricSchedWaitSeconds, nil).Snapshot()
	if snap.Count != 3 {
		t.Fatalf("wait observations = %d, want 3", snap.Count)
	}
	if snap.Sum < 9.99 || snap.Sum > 10.01 {
		t.Errorf("wait sum = %.3fs, want 10s of virtual time", snap.Sum)
	}

	// Head-of-line blocked time: b headed the queue from 5s to 15s.
	hol := reg.Histogram(obs.MetricSchedHOLBlockedSeconds, nil).Snapshot()
	if hol.Count != 1 {
		t.Fatalf("HOL observations = %d, want 1", hol.Count)
	}
	if hol.Sum < 9.99 || hol.Sum > 10.01 {
		t.Errorf("HOL blocked sum = %.3fs, want 10s", hol.Sum)
	}
}

// TestInstrumentedRejections counts every reject path.
func TestInstrumentedRejections(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(100, PolicyFCFSBackfill)
	mustWire(t, s, Wiring{Metrics: reg, Clock: &fakeClock{}})
	col := &collector{}

	if err := s.Submit("big", KindForward, 200, col.grant("big")); err == nil {
		t.Fatal("oversized request accepted")
	}
	mustSubmit(t, s, "a", KindForward, 90, col.grant("a"))
	if err := s.Submit("a", KindForward, 10, col.grant("a2")); err == nil {
		t.Fatal("duplicate outstanding accepted")
	}
	if v := reg.Counter(obs.MetricSchedRejected).Value(); v != 2 {
		t.Errorf("rejected counter = %d, want 2", v)
	}
}
