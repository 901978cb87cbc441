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

func newBatchedServer(t *testing.T, maxSize int, reg *obs.Registry) string {
	t.Helper()
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:   store,
		Batch:   sched.BatchPolicy{MaxSize: maxSize, MaxHold: 200 * time.Millisecond},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
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
		losses := make([]float64, 0, steps)
		for s := 0; s < steps; s++ {
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
	// clients' requests land within one hold window.
	reg := obs.NewRegistry()
	addr := newBatchedServer(t, clients, reg)
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
// bit-identical afterwards.
func TestBatchedServerBaseIntegrity(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store: store,
		Batch: sched.BatchPolicy{MaxSize: 4, MaxHold: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := clientCfg(fmt.Sprintf("integ-%d", i))
			cfg.AdapterSeed = uint64(200 + i)
			c, err := client.Dial(l.Addr().String(), cfg)
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
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := store.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
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
	// follows at once, well inside the 200ms hold window: without the
	// envelope check the two form one group of MaxSize 2.
	addr := newBatchedServer(t, 2, nil)
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
// construction-time error, not a silent fallback to serial serving.
func TestInvalidBatchPolicyRejected(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Store: store, Batch: sched.BatchPolicy{MaxSize: -2}}); err == nil {
		t.Fatal("invalid batch policy accepted")
	}
}
