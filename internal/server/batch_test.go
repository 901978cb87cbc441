package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
)

// stepBarrier releases n goroutines at a time, so lockstep clients hit
// the server within one batch-formation hold window.
type stepBarrier struct {
	mu      sync.Mutex
	n       int
	arrived int
	waiting chan struct{}
}

func newStepBarrier(n int) *stepBarrier {
	return &stepBarrier{n: n, waiting: make(chan struct{})}
}

func (b *stepBarrier) wait() {
	b.mu.Lock()
	b.arrived++
	ch := b.waiting
	if b.arrived == b.n {
		b.arrived = 0
		b.waiting = make(chan struct{})
		close(ch)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	<-ch
}

func newBatchedServer(t *testing.T, maxSize int, reg *obs.Registry) (*Server, string) {
	t.Helper()
	return startServer(t, Config{
		Batch:   sched.BatchPolicy{MaxSize: maxSize, MaxHold: 200 * time.Millisecond},
		Metrics: reg,
	})
}

// pressure keeps one request waiting in sch until release is called: it
// holds a one-byte grant and queues a request for everything that was
// free, which fits only once that grant is gone. While it waits, every
// batchable request is routed to the batch engine. release gives the
// grant back, waits for the queued request to be granted — which needs
// everything taken since the call to have been given back, including
// the reservations of sessions admitted after it — and completes it.
func pressure(t testing.TB, sch *sched.Scheduler) (release func()) {
	t.Helper()
	free := sch.Available()
	if err := sch.Submit("pressure-hold", sched.KindForward, 1, func() {}); err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	if err := sch.Submit("pressure-waiter", sched.KindBackward, free, func() { close(granted) }); err != nil {
		t.Fatal(err)
	}
	if d := sch.QueueDepth(); d != 1 {
		t.Fatalf("queue depth %d under pressure, want 1", d)
	}
	return func() {
		t.Helper()
		sch.Complete("pressure-hold")
		select {
		case <-granted:
		case <-time.After(5 * time.Second):
			t.Fatalf("the waiting request was never granted: %d of %d bytes still held",
				sch.Schedulable()-sch.Available(), sch.Schedulable())
		}
		sch.Complete("pressure-waiter")
	}
}

// frameHookConn runs a hook right before the client writes a frame of
// the given type: WriteMessage issues one Write per frame, with the
// message type at byte 3 of the header.
type frameHookConn struct {
	net.Conn
	before map[split.MsgType]func()
}

func (c *frameHookConn) Write(p []byte) (int, error) {
	if hook := c.before[split.MsgType(p[3])]; hook != nil {
		hook()
	}
	return c.Conn.Write(p)
}

// TestBatchedServerBitIdentical is the determinism contract of
// docs/BATCHING.md over real TCP: K concurrent LoRA clients served
// through batched kernel invocations produce bit-identical per-step
// losses to the same K clients served serially, including a member
// with a different LoRA rank (per-row dispatch keeps each member's own
// factors) and an ineligible prefix-adapter client that silently takes
// the serial path on the same server.
func TestBatchedServerBitIdentical(t *testing.T) {
	const clients = 3
	const steps = 3

	// Serial and batched runs both execute at pool parallelism 4: the
	// contract holds at any worker count, not just the single-threaded
	// layout (the adapter-level pin sweeps 1/2/4/8).
	prev := tensor.Parallelism()
	tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)

	cfgFor := func(i int) client.Config {
		cfg := clientCfg(fmt.Sprintf("blk-%d", i))
		cfg.AdapterSeed = uint64(100 + i)
		if i == 1 {
			// Same targets, different rank: batchable together.
			lc := adapter.DefaultLoRA()
			lc.Rank = 4
			cfg.Adapter = adapter.LoRASpec(lc)
		}
		return cfg
	}
	prefixCfg := clientCfg("blk-prefix")
	prefixCfg.Adapter = adapter.PrefixSpec(adapter.PrefixConfig{PrefixLen: 4})

	// Serial ground truth: each client alone, one at a time, on an
	// unbatched server over the same seeded store.
	serial := make([][]float64, clients+1)
	_, serialAddr := newTestServer(t)
	runOne := func(addr string, cfg client.Config, seed uint64, barrier *stepBarrier) ([]float64, error) {
		c, err := client.Dial(addr, cfg)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		ids, targets := batchFor(cfg, seed)
		return stepLosses(c, ids, targets, steps, barrier)
	}
	for i := 0; i < clients; i++ {
		losses, err := runOne(serialAddr, cfgFor(i), uint64(50+i), nil)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = losses
	}
	pl, err := runOne(serialAddr, prefixCfg, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial[clients] = pl

	// Batched run: everyone concurrent, steps in lockstep so the LoRA
	// clients' requests land within one hold window, and a request kept
	// waiting for memory throughout, so that every LoRA request is routed
	// to the batch engine.
	reg := obs.NewRegistry()
	srv, addr := newBatchedServer(t, clients, reg)
	release := pressure(t, srv.Scheduler())
	barrier := newStepBarrier(clients + 1)
	batched := make([][]float64, clients+1)
	errs := make([]error, clients+1)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batched[i], errs[i] = runOne(addr, cfgFor(i), uint64(50+i), barrier)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		batched[clients], errs[clients] = runOne(addr, prefixCfg, 99, barrier)
	}()
	wg.Wait()
	release()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i := range serial {
		for s := range serial[i] {
			if serial[i][s] != batched[i][s] {
				t.Errorf("client %d step %d: serial loss %v != batched %v",
					i, s, serial[i][s], batched[i][s])
			}
		}
	}

	// Batching must actually have happened: fewer invocations than the
	// LoRA clients' request count, with multi-member batches.
	formed := reg.Counter(obs.MetricBatchFormed).Value()
	if formed == 0 {
		t.Fatal("no batches formed")
	}
	size := reg.Histogram(obs.MetricBatchSize, nil).Snapshot()
	if mean := size.Sum / float64(size.Count); mean < 2 {
		t.Errorf("mean batch size %.2f, want ≥ 2 for lockstep clients", mean)
	}
	rows := reg.Counter(obs.MetricBatchRows).Value()
	if rows == 0 {
		t.Error("no batch rows recorded")
	}
}

// TestBatchedServerBaseIntegrity: batched serving builds throwaway
// multi-adapter bodies over shallow clones; the shared base must stay
// bit-identical afterwards. A request kept waiting for memory routes
// every step through those bodies.
func TestBatchedServerBaseIntegrity(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv, addr := startServer(t, Config{
		Store:   store,
		Batch:   sched.BatchPolicy{MaxSize: 4, MaxHold: 20 * time.Millisecond},
		Metrics: reg,
	})
	release := pressure(t, srv.Scheduler())

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := clientCfg(fmt.Sprintf("integ-%d", i))
			cfg.AdapterSeed = uint64(200 + i)
			c, err := client.Dial(addr, cfg)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			ids, targets := batchFor(cfg, uint64(60+i))
			for s := 0; s < 3; s++ {
				if _, err := c.Step(ids, targets); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	release()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if reg.Counter(obs.MetricBatchFormed).Value() == 0 {
		t.Fatal("no batch formed: the stacked pass never ran")
	}
	if err := store.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// stepLosses runs n training steps, each after barrier (if any) opens,
// and returns their losses.
func stepLosses(c *client.Client, ids, targets []int, n int, barrier *stepBarrier) ([]float64, error) {
	losses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if barrier != nil {
			barrier.wait()
		}
		res, err := c.Step(ids, targets)
		if err != nil {
			return nil, err
		}
		losses = append(losses, res.Loss)
	}
	return losses, nil
}

// TestBatchingFollowsPressure: a batchable request joins a batch only
// while another request waits for memory; otherwise it is served on the
// session's own body and keeps its activations like any other. The
// decision is taken per phase, so each transition between the two is
// pinned — and every loss is bit-equal to an unbatched server's.
func TestBatchingFollowsPressure(t *testing.T) {
	batching := sched.BatchPolicy{MaxSize: 4}
	cfg := clientCfg("pressured")
	ids, targets := batchFor(cfg, 15)

	_, plainAddr := newTestServer(t)
	c, err := client.Dial(plainAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stepLosses(c, ids, targets, 1, nil)
	_ = c.Close()
	if err != nil {
		t.Fatal(err)
	}

	// check compares a single step's loss with the unbatched one and the
	// server's counters with what the transition must have done.
	check := func(t *testing.T, srv *Server, reg *obs.Registry, loss float64, formed, claimed, reforwards int64) {
		t.Helper()
		if loss != want[0] {
			t.Errorf("loss %v, unbatched %v", loss, want[0])
		}
		got := [3]int64{reg.Counter(obs.MetricBatchFormed).Value(), srv.Scheduler().Stats().Claimed, srv.Stats().Reforwards}
		if got != [3]int64{formed, claimed, reforwards} {
			t.Errorf("batches formed / claim hits / re-forwards = %v, want %v", got, [3]int64{formed, claimed, reforwards})
		}
	}

	t.Run("ample memory forms no batch", func(t *testing.T) {
		const tenants, steps = 3, 3
		cfgFor := func(i int) client.Config {
			cfg := clientCfg(fmt.Sprintf("ample-%d", i))
			cfg.AdapterSeed = uint64(300 + i)
			return cfg
		}
		run := func(addr string, barrier *stepBarrier) [][]float64 {
			losses := make([][]float64, tenants)
			errs := make([]error, tenants)
			var wg sync.WaitGroup
			for i := range losses {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cfg := cfgFor(i)
					c, err := client.Dial(addr, cfg)
					if err != nil {
						errs[i] = err
						return
					}
					defer c.Close()
					ids, targets := batchFor(cfg, uint64(70+i))
					losses[i], errs[i] = stepLosses(c, ids, targets, steps, barrier)
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			return losses
		}
		ref := run(plainAddr, nil)
		reg := obs.NewRegistry()
		srv, addr := startServer(t, Config{Batch: batching, Metrics: reg})
		got := run(addr, newStepBarrier(tenants))
		for i := range ref {
			for s := range ref[i] {
				if got[i][s] != ref[i][s] {
					t.Errorf("tenant %d step %d: loss %v, unbatched %v", i, s, got[i][s], ref[i][s])
				}
			}
		}
		if v := reg.Counter(obs.MetricBatchFormed).Value(); v != 0 {
			t.Errorf("%d batches formed with nobody waiting for memory", v)
		}
		if hits, iters := srv.Scheduler().Stats().Claimed, srv.Stats().Iterations; hits != iters || iters != tenants*steps {
			t.Errorf("claim hits %d, iterations %d, want %d each", hits, iters, tenants*steps)
		}
		if r := srv.Stats().Reforwards; r != 0 {
			t.Errorf("%d re-forwards with ample memory", r)
		}
	})

	// One tenant on a fresh batched server, dialled through hooks that
	// run right before its ForwardReq / BackwardReq frames go out.
	dial := func(t *testing.T, before map[split.MsgType]func()) (*Server, *obs.Registry, *client.Client) {
		t.Helper()
		reg := obs.NewRegistry()
		srv, addr := startServer(t, Config{Batch: batching, Metrics: reg})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.New(&frameHookConn{Conn: conn, before: before}, cfg)
		if err != nil {
			_ = conn.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return srv, reg, c
	}

	t.Run("evaluate parks, a waiter appears, the step is batched", func(t *testing.T) {
		srv, reg, c := dial(t, nil)
		if _, err := c.Evaluate(ids, targets); err != nil {
			t.Fatal(err)
		}
		if srv.Scheduler().Parked() == 0 {
			t.Fatal("the lone evaluation kept nothing parked")
		}
		release := pressure(t, srv.Scheduler())
		res, err := c.Step(ids, targets) // its forward must give the parked grant back first
		if err != nil {
			t.Fatal(err)
		}
		release()
		check(t, srv, reg, res.Loss, 2, 0, 0)
	})

	t.Run("kept alone, a waiter appears, the backward claims", func(t *testing.T) {
		hooks := map[split.MsgType]func(){}
		srv, reg, c := dial(t, hooks)
		var release func()
		hooks[split.TypeBackwardReq] = func() { release = pressure(t, srv.Scheduler()) }
		res, err := c.Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
		release()
		check(t, srv, reg, res.Loss, 0, 1, 0)
	})

	t.Run("batched forward, pressure lifts, the backward re-forwards", func(t *testing.T) {
		hooks := map[split.MsgType]func(){}
		srv, reg, c := dial(t, hooks)
		var release func()
		hooks[split.TypeForwardReq] = func() { release = pressure(t, srv.Scheduler()) }
		hooks[split.TypeBackwardReq] = func() { release() }
		res, err := c.Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
		check(t, srv, reg, res.Loss, 1, 0, 1)
	})
}

// rawSession handshakes as a well-formed client and hands back the
// connection for hand-written frames.
func rawSession(t *testing.T, addr, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := client.New(conn, clientCfg(id)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// wantShapeError reads the reply to a malformed request: a fatal
// ErrorMsg naming the offending tensor, then the end of the session.
func wantShapeError(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	msg, err := split.ReadMessage(conn)
	if err != nil {
		t.Fatalf("reading the rejection: %v", err)
	}
	em, ok := msg.(*split.ErrorMsg)
	if !ok || em.Retryable || !strings.Contains(em.Reason, what+" have shape") {
		t.Fatalf("reply to malformed %s = %#v, want a fatal ErrorMsg about their shape", what, msg)
	}
	if _, err := split.ReadMessage(conn); err == nil {
		t.Error("offender's session stayed open after a fatal error")
	}
}

// TestMalformedMemberFailsAlone: a tenant whose tensor does not match
// its header is rejected in the request envelope, before it can join a
// batch — so a co-batched tenant's step, and its following steps, run
// on with losses bit-identical to an unbatched control. (Before the
// envelope check, the wrong-width member failed tensor.StackRows for the
// whole group and the server ended both sessions.) The serial executor
// rejects the same frames with the same message.
func TestMalformedMemberFailsAlone(t *testing.T) {
	const steps = 3
	dim := testModelCfg().Dim
	good := clientCfg("good")
	ids, targets := batchFor(good, 7)
	run := func(c *client.Client) []float64 {
		t.Helper()
		var losses []float64
		for i := 0; i < steps; i++ {
			res, err := c.Step(ids, targets)
			if err != nil {
				t.Fatalf("well-behaved client, step %d: %v", i, err)
			}
			losses = append(losses, res.Loss)
		}
		return losses
	}

	_, serialAddr := newTestServer(t)
	c, err := client.Dial(serialAddr, good)
	if err != nil {
		t.Fatal(err)
	}
	control := run(c)
	_ = c.Close()

	// The offender's frame goes out first and the well-behaved step
	// follows at once, well inside the 200ms hold window: with a request
	// waiting for memory both are routed to the engine, and without the
	// envelope check the two form one group of MaxSize 2.
	srv, addr := newBatchedServer(t, 2, nil)
	release := pressure(t, srv.Scheduler())
	defer release()
	c, err = client.Dial(addr, good)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := rawSession(t, addr, "bad")
	wide := &split.ForwardReq{Iter: 0, Batch: good.Batch, Seq: good.Seq, Activations: tensor.New(good.Batch*good.Seq, dim+1)}
	if err := split.WriteMessage(bad, wide); err != nil {
		t.Fatal(err)
	}
	batched := run(c)
	wantShapeError(t, bad, "activations")
	for i := range control {
		if batched[i] != control[i] {
			t.Errorf("step %d: loss %v beside a malformed tenant, %v alone", i, batched[i], control[i])
		}
	}

	// Serial executor, forward and backward: same verdict, same message
	// (it used to surface from deep inside the body, "body block 0: …").
	bad = rawSession(t, serialAddr, "bad-serial-fwd")
	if err := split.WriteMessage(bad, wide); err != nil {
		t.Fatal(err)
	}
	wantShapeError(t, bad, "activations")

	bad = rawSession(t, serialAddr, "bad-serial-bwd")
	ok := &split.ForwardReq{Iter: 0, Batch: good.Batch, Seq: good.Seq, Activations: tensor.New(good.Batch*good.Seq, dim)}
	if err := split.WriteMessage(bad, ok); err != nil {
		t.Fatal(err)
	}
	if msg, err := split.ReadMessage(bad); err != nil {
		t.Fatal(err)
	} else if _, isResp := msg.(*split.ForwardResp); !isResp {
		t.Fatalf("well-formed forward answered with %v", msg.MsgType())
	}
	short := &split.BackwardReq{Iter: 0, Apply: true, Gradients: tensor.New(good.Batch*good.Seq-1, dim)}
	if err := split.WriteMessage(bad, short); err != nil {
		t.Fatal(err)
	}
	wantShapeError(t, bad, "gradients")
}

// TestInvalidBatchPolicyRejected: a malformed batch policy is a
// construction-time error, not a silent fallback to serial serving or to
// the default hold.
func TestInvalidBatchPolicyRejected(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []sched.BatchPolicy{
		{MaxSize: -2},
		{MaxSize: 4, MaxHold: -time.Millisecond},
	} {
		if _, err := New(Config{Store: store, Batch: pol}); err == nil {
			t.Errorf("invalid batch policy %+v accepted", pol)
		}
	}
}
