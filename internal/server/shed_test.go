package server

import (
	"errors"
	"testing"
	"time"

	"menos/internal/client"
	"menos/internal/obs"
	"menos/internal/sched"
)

// TestLiveServerShedsAStep drives a served session into admission
// shedding on a hand-stepped server clock: the queue head has waited
// past the SLO when the client's forward arrives, so the step is shed.
// The client sees a RetryableError, keeps its session, and its next
// step succeeds once the controller has reopened; the shed is billed
// to the client and leaves a flight record.
func TestLiveServerShedsAStep(t *testing.T) {
	var now time.Duration
	clock := obs.ClockFunc(func() time.Duration { return now })
	defer func(orig func() obs.Clock) { newClock = orig }(newClock)
	newClock = func() obs.Clock { return clock }

	reg := obs.NewRegistry()
	flight := newFlight(t)
	srv, addr := startServer(t, Config{Metrics: reg, Flight: flight, SLO: sched.SLO{TargetP99: time.Second}})
	cfg := clientCfg("shed")
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, targets := batchFor(cfg, 1)

	// A hog holds every schedulable byte and a second request queues
	// behind it; two seconds later the queue head is twice the SLO old.
	granted := func(id string) func() {
		ch := make(chan struct{})
		t.Cleanup(func() {
			select {
			case <-ch:
			default:
				t.Errorf("%s never granted", id)
			}
		})
		return func() { close(ch) }
	}
	if err := srv.scheduler.Submit("hog", sched.KindBackward, srv.scheduler.Schedulable(), granted("hog")); err != nil {
		t.Fatal(err)
	}
	if err := srv.scheduler.Submit("queued", sched.KindBackward, 1, granted("queued")); err != nil {
		t.Fatal(err)
	}
	now = 2 * time.Second

	_, err = c.Step(ids, targets)
	var re *client.RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("step under shedding: err = %v, want a RetryableError", err)
	}
	if re.RetryAfter != time.Second {
		t.Errorf("retry hint %v, want the SLO target 1s", re.RetryAfter)
	}
	if st := srv.scheduler.AdmissionState(); st != sched.StateShedding {
		t.Fatalf("admission state %v, want shedding", st)
	}

	// Drain the queue, then let the window empty and the controller
	// step down a rung per dwell: each probe submission is one
	// evaluation, three seconds (over the 2s dwell) after the last.
	srv.scheduler.Complete("hog")
	srv.scheduler.Complete("queued")
	for i := 0; srv.scheduler.AdmissionState() != sched.StateOpen; i++ {
		if i == 20 {
			t.Fatal("admission never reopened")
		}
		now += 3 * time.Second
		ch := make(chan struct{})
		if err := srv.scheduler.Submit("probe", sched.KindForward, 1, func() { close(ch) }); err == nil {
			<-ch
			srv.scheduler.Complete("probe")
		} else if !errors.Is(err, sched.ErrOverloaded) {
			t.Fatal(err)
		}
	}

	if _, err := c.Step(ids, targets); err != nil {
		t.Fatalf("step after reopening: %v", err)
	}
	sheds, _ := reg.CounterVec(obs.MetricServerShedsTotal, "client").Get(cfg.ClientID)
	if sheds.Value() != 1 {
		t.Errorf("%s{client=%q} = %d, want 1", obs.MetricServerShedsTotal, cfg.ClientID, sheds.Value())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := flightReasons(t, flight)[obs.FlightReasonShed]; n != 1 {
		t.Errorf("%d %q flight records, want 1", n, obs.FlightReasonShed)
	}
}
