package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"menos/internal/client"
	"menos/internal/fleet"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/split"
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
	if st := srv.scheduler.Load().Admission; st != sched.StateShedding {
		t.Fatalf("admission state %v, want shedding", st)
	}

	// Drain the queue, then let the window empty and the controller
	// step down a rung per dwell: each probe submission is one
	// evaluation, three seconds (over the 2s dwell) after the last.
	srv.scheduler.Complete("hog")
	srv.scheduler.Complete("queued")
	for i := 0; srv.scheduler.Load().Admission != sched.StateOpen; i++ {
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

// quietAfterShedding drives a served session into admission shedding
// on a hand-stepped server clock, as TestLiveServerShedsAStep does, then
// stops all traffic: the memory is released and the only client leaves,
// so nothing submits again. It returns the server, its address, the
// clock (nanoseconds) and the SLO; two SLO windows on from there (the
// window empties, then a dwell per rung) the controller has reopened.
func quietAfterShedding(t *testing.T) (*Server, string, *atomic.Int64, sched.SLO) {
	now := new(atomic.Int64)
	clock := obs.ClockFunc(func() time.Duration { return time.Duration(now.Load()) })
	orig := newClock
	t.Cleanup(func() { newClock = orig })
	newClock = func() obs.Clock { return clock }

	slo := sched.SLO{TargetP99: time.Second}
	srv, addr := startServer(t, Config{SLO: slo})
	sch := srv.Scheduler()
	cfg := clientCfg("shed")
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Submit("hog", sched.KindBackward, sch.Schedulable(), func() {}); err != nil {
		t.Fatal(err)
	}
	if err := sch.Submit("queued", sched.KindBackward, 1, func() {}); err != nil {
		t.Fatal(err)
	}
	now.Store(int64(2 * time.Second))
	ids, targets := batchFor(cfg, 1)
	var re *client.RetryableError
	if _, err := c.Step(ids, targets); !errors.As(err, &re) {
		t.Fatalf("step under shedding: err = %v, want a RetryableError", err)
	}
	if st := sch.Load().Admission; st != sched.StateShedding {
		t.Fatalf("admission state %v, want shedding", st)
	}

	// Traffic stops: the hog and the request behind it are done, and the
	// client leaves; its teardown gives back its reservation.
	sch.Complete("hog")
	sch.Complete("queued")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the session's teardown", func() bool { return sch.Schedulable() == sch.Total() })
	return srv, addr, now, slo
}

// TestSheddingServerReopensWhenTrafficStops: two SLO windows after the
// traffic of a shedding server stopped, a new client's Hello is
// admitted: reading the admission state at the handshake brings the
// controller up to the clock.
func TestSheddingServerReopensWhenTrafficStops(t *testing.T) {
	srv, addr, now, slo := quietAfterShedding(t)
	sch := srv.Scheduler()
	now.Add(int64(2 * 8 * slo.TargetP99)) // twice the default window, 8×TargetP99
	fresh, err := client.Dial(addr, clientCfg("fresh"))
	if err != nil {
		t.Fatalf("hello after traffic stopped: %v", err)
	}
	defer fresh.Close()
	if st := sch.Load().Admission; st == sched.StateShedding {
		t.Errorf("admission state %v after the window emptied", st)
	}
}

// TestLoadzAgreesWithTheHandshake: on a server whose traffic stopped
// while it shed, /loadz's admission state and a Hello's verdict agree,
// both before the clock moves (shedding: the Hello is refused as
// retryable) and two SLO windows later (reopened: the Hello is
// admitted). Both read the controller brought up to the clock.
func TestLoadzAgreesWithTheHandshake(t *testing.T) {
	srv, addr, now, slo := quietAfterShedding(t)
	for i, tc := range []struct {
		advance  time.Duration
		shedding bool
	}{{0, true}, {2 * 8 * slo.TargetP99, false}} {
		now.Add(int64(tc.advance))
		loadz := srv.LoadSnapshot().Server.Admission
		if got := loadz == fleet.AdmissionState(sched.StateShedding); got != tc.shedding {
			t.Errorf("+%v: /loadz reads %v, want shedding %v", tc.advance, loadz, tc.shedding)
		}
		c, err := client.Dial(addr, clientCfg(fmt.Sprintf("hello-%d", i)))
		if err == nil {
			_ = c.Close()
		}
		var re *client.RetryableError
		if refused := errors.As(err, &re); refused != (loadz == fleet.AdmissionState(sched.StateShedding)) {
			t.Errorf("+%v: /loadz reads %v, the Hello's verdict: %v", tc.advance, loadz, err)
		}
	}
}

// TestLiveBatchedServerShedsMembers drives a batched server into the
// Throttled admission state on a hand-stepped server clock, with two
// resident tenants whose throttle parities differ by one, and steps them
// in lockstep so their forwards form one batch. Admission decides each
// member on its own parity: it sheds the one a step of its own would
// lose, whose session sees a RetryableError while its co-member still
// waits for the batch's grant, and steps again once the controller has
// reopened; the batch runs with the other, whose step completes. The
// controller reopens before either backward goes out, so the batch is
// the one place a shed can land. Only the shed member is billed a shed,
// and only the member that ran is counted in the batch.
func TestLiveBatchedServerShedsMembers(t *testing.T) {
	var now atomic.Int64
	clock := obs.ClockFunc(func() time.Duration { return time.Duration(now.Load()) })
	defer func(orig func() obs.Clock) { newClock = orig }(newClock)
	newClock = func() obs.Clock { return clock }

	reg := obs.NewRegistry()
	srv, addr := startServer(t, Config{
		// Lockstep forwards fill a batch of two long before its hold ends.
		Batch:   sched.BatchPolicy{MaxSize: 2, MaxHold: 5 * time.Second},
		SLO:     sched.SLO{TargetP99: time.Second},
		Metrics: reg,
	})
	sch := srv.Scheduler()
	cfgA, cfgB := clientCfg("member-a"), clientCfg("member-b")
	idsA, targetsA := batchFor(cfgA, 21)
	idsB, targetsB := batchFor(cfgB, 22)

	// The first backward of the lockstep step goes out once the batch ran
	// its forward: its hook lifts the memory pressure and lets the
	// controller step down, a rung per probe submission three seconds
	// (over the 2s dwell) after the last, so no backward is throttled.
	var release func()
	var reopened sync.Once
	reopen := func() {
		reopened.Do(func() {
			release()
			for i := 0; sch.Load().Admission != sched.StateOpen; i++ {
				if i == 20 {
					t.Error("admission never reopened")
					return
				}
				now.Add(int64(3 * time.Second))
				ch := make(chan struct{})
				if err := sch.Submit("probe", sched.KindForward, 1, func() { close(ch) }); err == nil {
					<-ch
					sch.Complete("probe")
				} else if !errors.Is(err, sched.ErrOverloaded) {
					t.Error(err)
					return
				}
			}
		})
	}
	hooks := map[split.MsgType]func(){}
	dial := func(cfg client.Config) *client.Client {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.New(&frameHookConn{Conn: conn, before: hooks}, cfg)
		if err != nil {
			_ = conn.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	a, b := dial(cfgA), dial(cfgB)

	// A step each on an open, idle server makes both tenants resident.
	for _, c := range []struct {
		c            *client.Client
		ids, targets []int
	}{{a, idsA, targetsA}, {b, idsB, targetsB}} {
		if _, err := c.c.Step(c.ids, c.targets); err != nil {
			t.Fatal(err)
		}
	}

	// A grant on the idle server makes the hog below resident, so that
	// while Throttled it may still backfill past the waiting request.
	hog := make(chan struct{})
	if err := sch.Submit("hog", sched.KindForward, 1, func() { close(hog) }); err != nil {
		t.Fatal(err)
	}
	<-hog
	sch.Complete("hog")

	// A request waits for memory from now on, so both tenants' forwards
	// are batched; 0.8s later its age, between 0.7 and 1 times the SLO,
	// throttles the server at the next submission. B's record takes one
	// throttled submission of its own first, so the batch finds A on an
	// odd tick and B on an even one.
	release = pressure(t, sch)
	now.Add(int64(800 * time.Millisecond))
	ch := make(chan struct{})
	if err := sch.Submit(cfgB.ClientID, sched.KindForward, 1, func() { close(ch) }); err != nil {
		t.Fatalf("B's head start: %v", err)
	}
	<-ch
	sch.Complete(cfgB.ClientID)
	if st := sch.Load().Admission; st != sched.StateThrottled {
		t.Fatalf("admission state %v, want throttled", st)
	}
	// The hog takes every byte left (its first throttled submission is
	// admitted), so the batch's grant waits for the test to end the hog.
	hog = make(chan struct{})
	if err := sch.Submit("hog", sched.KindForward, sch.Available(), func() { close(hog) }); err != nil {
		t.Fatalf("hog: %v", err)
	}
	<-hog
	formed := reg.Counter(obs.MetricBatchFormed).Value()
	size := reg.Histogram(obs.MetricBatchSize, nil).Snapshot()

	hooks[split.TypeBackwardReq] = reopen
	barrier := newStepBarrier(2)
	var errA, errB error
	doneA, doneB := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(doneA)
		barrier.wait()
		_, errA = a.Step(idsA, targetsA)
	}()
	go func() {
		defer close(doneB)
		barrier.wait()
		_, errB = b.Step(idsB, targetsB)
	}()
	// B hears of its shed while the hog still holds A's grant back.
	select {
	case <-doneB:
		select {
		case <-doneA:
			t.Error("A's step completed while the hog held every byte")
		default:
		}
	case <-doneA:
		t.Error("A's step completed while the hog held every byte")
	case <-time.After(10 * time.Second):
		t.Error("B's shed was not delivered while the batch waited for its grant")
	}
	sch.Complete("hog")
	<-doneA
	<-doneB
	delete(hooks, split.TypeBackwardReq)

	if got := reg.Counter(obs.MetricBatchFormed).Value() - formed; got != 1 {
		t.Fatalf("%d batches formed by the lockstep forwards, want 1", got)
	}
	if got := reg.Histogram(obs.MetricBatchSize, nil).Snapshot().Sum - size.Sum; got != 1 {
		t.Errorf("%s grew by %v members, want 1: only A ran", obs.MetricBatchSize, got)
	}
	if errA != nil {
		t.Errorf("A's step beside a shed co-member: %v", errA)
	}
	var re *client.RetryableError
	if !errors.As(errB, &re) {
		t.Fatalf("B's step: err = %v, want a RetryableError", errB)
	}
	if re.RetryAfter != 500*time.Millisecond {
		t.Errorf("B's retry hint %v, want the throttled half of the SLO target, 500ms", re.RetryAfter)
	}
	if _, err := b.Step(idsB, targetsB); err != nil {
		t.Fatalf("B's step after reopening: %v", err)
	}

	sheds := reg.CounterVec(obs.MetricServerShedsTotal, "client")
	for id, want := range map[string]int64{cfgA.ClientID: 0, cfgB.ClientID: 1} {
		var got int64
		if c, ok := sheds.Get(id); ok {
			got = c.Value()
		}
		if got != want {
			t.Errorf("%s{client=%q} = %d, want %d", obs.MetricServerShedsTotal, id, got, want)
		}
	}
}
