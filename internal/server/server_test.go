package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/gpu"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
)

const weightSeed = 1234

func testModelCfg() model.Config { return model.OPTTiny() }

func newTestServer(t testing.TB) (*Server, string) {
	t.Helper()
	return startServer(t, Config{})
}

// startServer serves cfg on a loopback listener until the test ends; a
// nil Store is filled with a fresh test store.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Store == nil {
		store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

func clientCfg(id string) client.Config {
	return client.Config{
		ClientID:    id,
		Model:       testModelCfg(),
		WeightSeed:  weightSeed,
		Cut:         1,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 99,
		LR:          5e-3,
		Batch:       2,
		Seq:         6,
	}
}

func batchFor(cfg client.Config, seed uint64) (ids, targets []int) {
	r := tensor.NewRNG(seed)
	n := cfg.Batch * cfg.Seq
	ids = make([]int, n)
	targets = make([]int, n)
	vocab := cfg.Model.Vocab
	for i := range ids {
		ids[i] = r.Intn(vocab)
		targets[i] = r.Intn(vocab)
	}
	return ids, targets
}

// localBaseline reproduces the exact same fine-tuning locally: same
// weight seed, same adapter seeds on the same block ranges, same
// optimizer. Returns per-step losses.
func localBaseline(t *testing.T, cfg client.Config, ids, targets []int, steps int) []float64 {
	t.Helper()
	m, err := model.New(tensor.NewRNG(cfg.WeightSeed), cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFrozenBase(true)
	// Client-side adapter (φ_i) over blocks [0, cut).
	adClient, err := cfg.Adapter.Inject(tensor.NewRNG(cfg.AdapterSeed^client.AdapterSalt),
		m.Blocks[:cfg.Cut], cfg.Model.Dim)
	if err != nil {
		t.Fatal(err)
	}
	// Server-side adapter (φ_s) over blocks [cut, L).
	adServer, err := cfg.Adapter.Inject(tensor.NewRNG(cfg.AdapterSeed),
		m.Blocks[cfg.Cut:], cfg.Model.Dim)
	if err != nil {
		t.Fatal(err)
	}
	optC := nn.NewAdam(cfg.LR)
	optS := nn.NewAdam(cfg.LR)

	losses := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		res, err := m.LossAndGrad(ids, targets, cfg.Batch, cfg.Seq)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, res.Loss)
		if err := optC.Step(adClient.Params()); err != nil {
			t.Fatal(err)
		}
		if err := optS.Step(adServer.Params()); err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(adClient.Params())
		nn.ZeroGrads(adServer.Params())
	}
	return losses
}

// TestSplitFineTuningEqualsLocal is the paper's convergence claim made
// exact: "the fine-tuning results of Menos are identical to
// single-device fine-tuning, as it only distributes computation while
// maintaining the same logical flow". We assert the per-step losses
// over real TCP match the local run to float tolerance.
func TestSplitFineTuningEqualsLocal(t *testing.T) {
	_, addr := newTestServer(t)
	cfg := clientCfg("equiv")
	ids, targets := batchFor(cfg, 7)
	const steps = 5

	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var splitLosses []float64
	for i := 0; i < steps; i++ {
		res, err := c.Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
		splitLosses = append(splitLosses, res.Loss)
	}

	localLosses := localBaseline(t, cfg, ids, targets, steps)
	for i := range localLosses {
		if diff := math.Abs(splitLosses[i] - localLosses[i]); diff > 1e-5 {
			t.Fatalf("step %d: split loss %v != local loss %v (diff %v)",
				i, splitLosses[i], localLosses[i], diff)
		}
	}
	// And learning is actually happening.
	if splitLosses[steps-1] >= splitLosses[0] {
		t.Fatalf("no learning: %v -> %v", splitLosses[0], splitLosses[steps-1])
	}
}

// revokingConn forces the scheduler to need every byte right before the
// client's backward frames: after the handshake a plain Step writes
// ForwardReq, BackwardReq, ForwardReq, ... (one Write per frame), and
// the server has parked the forward's cache before its ForwardResp let
// the client get this far. The need is a real reservation of everything
// Available() reports — the path a joining tenant's reservation takes.
type revokingConn struct {
	net.Conn
	sched  *sched.Scheduler
	writes int
}

func (c *revokingConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes >= 3 && c.writes%2 == 1 {
		h, err := c.sched.Enroll("probe")
		if err != nil {
			return 0, err
		}
		err = h.Reserve(c.sched.Available())
		h.Forget()
		if err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

// TestPreservePolicyProducesIdenticalMath: the re-forward of the
// on-demand policy must be numerically identical to preserving the
// activations (Fig. 3's policies change memory behaviour, not
// results). The server has one policy whose two outcomes are compared:
// left alone, every backward claims the cache its forward parked; with
// the memory needed before every backward, every cache is revoked and
// every backward re-forwards.
func TestPreservePolicyProducesIdenticalMath(t *testing.T) {
	const steps = 4
	runPolicy := func(revoke bool) []float64 {
		srv, addr := newTestServer(t)
		cfg := clientCfg("policy")
		ids, targets := batchFor(cfg, 8)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if revoke {
			conn = &revokingConn{Conn: conn, sched: srv.Scheduler()}
		}
		c, err := client.New(conn, cfg)
		if err != nil {
			conn.Close()
			t.Fatal(err)
		}
		defer c.Close()
		var losses []float64
		for i := 0; i < steps; i++ {
			res, err := c.Step(ids, targets)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, res.Loss)
		}
		st := srv.Scheduler().Stats()
		wantHits, wantRefwd := int64(steps), int64(0)
		if revoke {
			wantHits, wantRefwd = 0, steps
		}
		if st.Grown != steps || st.Claimed != wantHits || st.Revoked != wantRefwd || srv.Stats().Reforwards != wantRefwd {
			t.Fatalf("revoke=%v: grown %d claimed %d revoked %d reforwards %d, want %d/%d/%d/%d",
				revoke, st.Grown, st.Claimed, st.Revoked, srv.Stats().Reforwards, steps, wantHits, wantRefwd, wantRefwd)
		}
		return losses
	}
	onDemand := runPolicy(true)
	preserve := runPolicy(false)
	for i := range onDemand {
		if onDemand[i] != preserve[i] {
			t.Fatalf("step %d: on-demand %v != preserve %v", i, onDemand[i], preserve[i])
		}
	}
}

// TestConcurrentClientsShareBase runs several clients at once with
// different data and different adapters (both kinds, LoRA at two
// shapes) — the heterogeneity §3.1 motivates — and verifies isolation
// plus base integrity.
func TestConcurrentClientsShareBase(t *testing.T) {
	srv, addr := newTestServer(t)

	specs := []adapter.Spec{
		adapter.LoRASpec(adapter.DefaultLoRA()),
		adapter.PrefixSpec(adapter.PrefixConfig{PrefixLen: 4}),
		adapter.LoRASpec(adapter.LoRAConfig{Rank: 4, Alpha: 8,
			Targets: []adapter.Target{adapter.TargetQ, adapter.TargetK, adapter.TargetV, adapter.TargetO}}),
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec adapter.Spec) {
			defer wg.Done()
			cfg := clientCfg(fmt.Sprintf("hetero-%d", i))
			cfg.Adapter = spec
			cfg.Cut = 1 + i%2 // different cut layers, too
			ids, targets := batchFor(cfg, uint64(20+i))
			c, err := client.Dial(addr, cfg)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			first, err := c.Step(ids, targets)
			if err != nil {
				errs <- err
				return
			}
			var last client.StepResult
			for s := 0; s < 8; s++ {
				last, err = c.Step(ids, targets)
				if err != nil {
					errs <- err
					return
				}
			}
			if last.Loss >= first.Loss {
				errs <- fmt.Errorf("client %d did not learn: %v -> %v", i, first.Loss, last.Loss)
			}
		}(i, spec)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := srv.Stats(); err.ClientsServed != 3 {
		t.Fatalf("served %d clients", err.ClientsServed)
	}
}

func TestHandshakeRejections(t *testing.T) {
	_, addr := newTestServer(t)

	t.Run("wrong model", func(t *testing.T) {
		cfg := clientCfg("wrong-model")
		cfg.Model = model.LlamaTiny()
		if _, err := client.Dial(addr, cfg); !errors.Is(err, client.ErrRejected) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad adapter", func(t *testing.T) {
		cfg := clientCfg("bad-adapter")
		cfg.Adapter = adapter.Spec{Kind: adapter.KindLoRA} // rank 0
		if _, err := client.Dial(addr, cfg); err == nil {
			t.Fatal("bad adapter accepted")
		}
	})
	t.Run("bad seq", func(t *testing.T) {
		cfg := clientCfg("bad-seq")
		cfg.Seq = testModelCfg().MaxSeq + 1
		if _, err := client.Dial(addr, cfg); err == nil {
			t.Fatal("bad seq accepted")
		}
	})
	t.Run("duplicate id", func(t *testing.T) {
		cfg := clientCfg("dup")
		c1, err := client.Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c1.Close()
		if _, err := client.Dial(addr, cfg); !errors.Is(err, client.ErrRejected) {
			t.Fatalf("duplicate err = %v", err)
		}
	})
}

// TestSGDHelloRefused: the server optimizes φ_s with Adam only, and
// its persistent reservation is sized for Adam's two moments. A Hello
// asking for "sgd" is refused as an unknown optimizer and leaves the
// scheduler's budget as it was.
func TestSGDHelloRefused(t *testing.T) {
	srv, addr := newTestServer(t)
	before := srv.Scheduler().Available()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cfg := clientCfg("sgd")
	if err := split.WriteMessage(conn, &split.Hello{
		ClientID: cfg.ClientID, ModelName: cfg.Model.Name, Cut: cfg.Cut, Adapter: cfg.Adapter,
		Optimizer: split.OptimizerConfig{Kind: "sgd", LR: 1e-2},
		Batch:     cfg.Batch, Seq: cfg.Seq, AdapterSeed: cfg.AdapterSeed,
	}); err != nil {
		t.Fatal(err)
	}
	msg, err := split.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := msg.(*split.HelloAck)
	if !ok || ack.OK || !strings.Contains(ack.Reason, `unknown optimizer "sgd"`) {
		t.Fatalf("reply %#v, want a refusal naming the unknown optimizer", msg)
	}
	if got := srv.Scheduler().Available(); got != before {
		t.Fatalf("scheduler available %d after the refusal, %d before", got, before)
	}
}

// TestHandshakeRefusalsReleaseEverything: every refusal a raw Hello can
// reach — an invalid or oversized spec before anything is built, an
// unknown optimizer or learning rate, and refusals after the persistent
// reservation and the instance — leaves the scheduler's budget and the
// store's live instances as they were by the time the refusal arrives.
// None of them costs the server: a healthy client trains afterwards.
func TestHandshakeRefusalsReleaseEverything(t *testing.T) {
	_, mb, persist := tenantFootprint(t)
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Room for one client's persistent state and backward, not for the
	// backward of twice its batch.
	srv, addr := startServer(t, Config{
		Store: store,
		GPU:   gpu.NewDevice(gpu.Spec{Name: "small", MemoryBytes: store.BaseParamBytes() + persist + mb}, nil),
	})
	for _, tc := range []struct {
		name   string
		edit   func(*split.Hello)
		reason string
	}{
		{"unknown optimizer", func(h *split.Hello) { h.Optimizer.Kind = "sgd" }, `unknown optimizer "sgd"`},
		{"negative learning rate", func(h *split.Hello) { h.Optimizer.LR = -1 }, "learning rate -1 is not finite"},
		{"NaN learning rate", func(h *split.Hello) { h.Optimizer.LR = math.NaN() }, "learning rate NaN is not finite"},
		{"infinite learning rate", func(h *split.Hello) { h.Optimizer.LR = math.Inf(1) }, "learning rate +Inf is not finite"},
		{"unknown resume token", func(h *split.Hello) { h.ResumeToken = 4242 }, "unknown resume token 4242"},
		{"backward above schedulable", func(h *split.Hello) { h.Batch *= 2 }, "exceeds schedulable memory"},
		{"seq above max seq", func(h *split.Hello) { h.Seq = testModelCfg().MaxSeq + 1 }, "max seq 128"},
		{"huge LoRA rank", func(h *split.Hello) { h.Adapter.Rank = 1 << 50 }, "above model dim"},
		{"huge prefix", func(h *split.Hello) {
			h.Adapter = adapter.PrefixSpec(adapter.PrefixConfig{PrefixLen: 1 << 50})
		}, "above max seq"},
		{"repeated target", func(h *split.Hello) {
			h.Adapter.Targets = []adapter.Target{adapter.TargetV, adapter.TargetV}
		}, "target v repeated"},
		{"retired adapter kind", func(h *split.Hello) { h.Adapter = adapter.Spec{Kind: 3} }, "unknown kind 3"},
		{"batch 1<<40", func(h *split.Hello) { h.Batch = 1 << 40 }, "frame limit"},
		{"batch 1<<60 seq 16", func(h *split.Hello) { h.Batch, h.Seq = 1<<60, 16 }, "frame limit"},
		{"rows one past the frame limit", func(h *split.Hello) {
			h.Batch, h.Seq = split.MaxFrameBytes/4/testModelCfg().Dim+1, 1
		}, "frame limit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			available, instances := srv.Scheduler().Available(), store.ActiveInstances()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			cfg := clientCfg("refused")
			hello := &split.Hello{
				ClientID: cfg.ClientID, ModelName: cfg.Model.Name, Cut: cfg.Cut, Adapter: cfg.Adapter,
				Batch: cfg.Batch, Seq: cfg.Seq, AdapterSeed: cfg.AdapterSeed,
			}
			tc.edit(hello)
			if err := split.WriteMessage(conn, hello); err != nil {
				t.Fatal(err)
			}
			msg, err := split.ReadMessage(conn)
			if err != nil {
				t.Fatal(err)
			}
			if ack, ok := msg.(*split.HelloAck); !ok || ack.OK || !strings.Contains(ack.Reason, tc.reason) {
				t.Fatalf("reply %#v, want a refusal naming %q", msg, tc.reason)
			}
			if got := srv.Scheduler().Available(); got != available {
				t.Errorf("scheduler available %d after the refusal, %d before", got, available)
			}
			if got := store.ActiveInstances(); got != instances {
				t.Errorf("live instances %d after the refusal, %d before", got, instances)
			}
		})
	}

	cfg := clientCfg("healthy")
	ids, targets := batchFor(cfg, 5)
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatalf("a healthy client after the refusals: %v", err)
	}
	defer c.Close()
	first, err := c.Step(ids, targets)
	if err != nil {
		t.Fatal(err)
	}
	last := first
	for i := 0; i < 5; i++ {
		if last, err = c.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
	}
	if last.Loss >= first.Loss {
		t.Fatalf("healthy client did not learn: %v -> %v", first.Loss, last.Loss)
	}
}

// TestAbruptDisconnectReleasesInstance: a client vanishing mid-session
// — here with a forward's cache still parked — must not leak its
// instance, its parked grant or its memory reservation. Once its
// teardown has run, the scheduler holds what it held before the client
// dialed (its identity table, free, schedulable and parked bytes), the
// device holds the bytes it held and the shared store the instances it
// had, the session's arena series read 0 and its goroutines are gone;
// the same client ID is then admitted again, and its teardown gives
// the same books back.
func TestAbruptDisconnectReleasesInstance(t *testing.T) {
	tensor.Parallelism() // the shared compute pool outlives any server: start it first
	reg := obs.NewRegistry()
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{Metrics: reg, Store: store})
	cfg := clientCfg("flaky")
	ids, targets := batchFor(cfg, 9)
	sch := srv.Scheduler()
	type books struct {
		identities                     int
		available, schedulable, parked int64
		deviceUsed                     int64
		instances                      int
	}
	read := func() books {
		return books{sch.Stats().Identities, sch.Available(), sch.Schedulable(), sch.Parked(),
			srv.Device().Used(), store.ActiveInstances()}
	}
	before, goroutines := read(), runtime.NumGoroutine()
	// The teardown drops the active count last, once everything the
	// session held is back.
	active := reg.Gauge(obs.MetricServerActiveClients)

	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate(ids, targets); err != nil {
		t.Fatal(err)
	}
	if sch.Parked() == 0 {
		t.Fatal("the abandoned forward left nothing parked")
	}
	if live := read(); live.instances != before.instances+1 {
		t.Fatalf("the live session leaves the store with %d instances, %d before the dial", live.instances, before.instances)
	}
	// Abrupt close without Bye.
	_ = c.Close()
	waitFor(t, "the abandoned session's teardown", func() bool { return active.Value() == 0 })
	if got := read(); got != before {
		t.Errorf("after the teardown the scheduler holds %+v, before the dial %+v", got, before)
	}
	for _, family := range []string{obs.MetricServerArenaRetainedBytes, obs.MetricServerArenaOutstandingBytes} {
		if g, ok := reg.GaugeVec(family, "client").Get(cfg.ClientID); !ok || g.Value() != 0 {
			t.Errorf("%s{client=%q} after the teardown: %v (series present: %v), want 0", family, cfg.ClientID, g.Value(), ok)
		}
	}
	waitFor(t, "the goroutine count to come back", func() bool { return runtime.NumGoroutine() <= goroutines })

	// The same client id is admitted again: the old instance and
	// enrollment are released.
	again, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatalf("re-admission failed: %v", err)
	}
	if _, err := again.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
	_ = again.Close()
	waitFor(t, "the second session's teardown", func() bool { return active.Value() == 0 })
	if got := read(); got != before {
		t.Errorf("after the second teardown the scheduler holds %+v, before the first dial %+v", got, before)
	}
}

// TestRetiredFrameIsRefused: a frame of a retired type (9 through 13
// carried the incremental-decode plane) is answered with an ErrorMsg
// naming its type, and the session is torn down with nothing left
// behind: no grant, no parked cache, no instance.
func TestRetiredFrameIsRefused(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{Store: store})
	sch := srv.Scheduler()
	budget := sch.Available()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cfg := clientCfg("retired")
	c, err := client.New(conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An evaluation leaves its forward's cache parked, so the teardown
	// has something to give back.
	if _, err := c.Evaluate(batchFor(cfg, 3)); err != nil {
		t.Fatal(err)
	}
	if sch.Parked() == 0 {
		t.Fatal("the evaluation left nothing parked")
	}

	// magic, version 1, type 9, an 8-byte payload.
	frame := []byte{0x53, 0x4D, 1, 9, 8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	msg, err := split.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if em, ok := msg.(*split.ErrorMsg); !ok || em.Retryable ||
		!strings.Contains(em.Reason, "retired") || !strings.Contains(em.Reason, "type 9") {
		t.Fatalf("reply %#v, want an ErrorMsg naming retired type 9", msg)
	}
	if _, err := split.ReadMessage(conn); err == nil {
		t.Fatal("the session outlived the retired frame")
	}

	deadline := time.Now().Add(5 * time.Second)
	for sch.Available() != budget || sch.Schedulable() != budget || sch.Parked() != 0 || store.ActiveInstances() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leak: available %d, schedulable %d of budget %d, %d parked, %d live instances",
				sch.Available(), sch.Schedulable(), budget, sch.Parked(), store.ActiveInstances())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerRejectsOversizedGeometry: the Hello's batch/seq bound the
// granted memory; a larger request must be an error, not an OOM, while
// smaller geometry (e.g. single-token generation) is memory-safe and
// accepted.
func TestServerRejectsOversizedGeometry(t *testing.T) {
	_, addr := newTestServer(t)
	cfg := clientCfg("geom")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := client.New(conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Geometry below the Hello's works (the Hello's is 2x6).
	small := tensor.New(4, testModelCfg().Dim)
	if err := split.WriteMessage(conn, &split.ForwardReq{Iter: 0, Batch: 1, Seq: 4, Activations: small}); err != nil {
		t.Fatal(err)
	}
	msg, err := split.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*split.ForwardResp); !ok {
		t.Fatalf("small geometry rejected: %v", msg.MsgType())
	}

	// Geometry above the Hello's is rejected.
	big := tensor.New(48, testModelCfg().Dim)
	if err := split.WriteMessage(conn, &split.ForwardReq{Iter: 1, Batch: 8, Seq: 6, Activations: big}); err != nil {
		t.Fatal(err)
	}
	msg, err = split.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*split.ErrorMsg); !ok {
		t.Fatalf("expected error message, got %v", msg.MsgType())
	}
	_ = c
}

// TestEvaluate runs evaluation round-trips. Evaluate is a forward no
// backward ever follows: it leaves the forward's cache parked, which the
// next forward must give back instead of failing ErrOutstanding — so
// consecutive evaluations, and training after them, keep working.
func TestEvaluate(t *testing.T) {
	srv, addr := newTestServer(t)
	sch := srv.Scheduler()
	cfg := clientCfg("eval")
	ids, targets := batchFor(cfg, 10)
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loss, err := c.Evaluate(ids, targets)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("loss = %v", loss)
	}
	// The abandoned forward's cache is parked: held, yet free to anyone.
	_, mb := c.Demands()
	if sch.Parked() != mb || sch.Available() != sch.Schedulable() {
		t.Fatalf("after evaluate: parked %d (want M_b %d), available %d of %d schedulable",
			sch.Parked(), mb, sch.Available(), sch.Schedulable())
	}
	// Evaluation must not move parameters: next evaluation identical.
	loss2, err := c.Evaluate(ids, targets)
	if err != nil {
		t.Fatal(err)
	}
	if loss != loss2 {
		t.Fatalf("evaluate mutated state: %v != %v", loss, loss2)
	}
	// A full iteration after the abandoned forwards: its loss is
	// the evaluated one, and its backward returns every grant.
	res, err := c.Step(ids, targets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != loss {
		t.Fatalf("step after evaluate: loss %v, evaluated %v", res.Loss, loss)
	}
	if sch.Available() != sch.Schedulable() || sch.Parked() != 0 {
		t.Fatalf("grant leaked: %d of %d schedulable bytes free, %d parked", sch.Available(), sch.Schedulable(), sch.Parked())
	}
}

// TestBaseIntegrityAfterServing: after real fine-tuning traffic, the
// shared base parameters are bit-identical (the read-only contract).
func TestBaseIntegrityAfterServing(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	cfg := clientCfg("integrity")
	ids, targets := batchFor(cfg, 11)
	c, err := client.Dial(l.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()
	if err := store.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerBudgetRestoredAfterClients: serving N clients and
// disconnecting them must return the scheduler to its initial budget
// (no leaked grants or reservations).
func TestSchedulerBudgetRestoredAfterClients(t *testing.T) {
	srv, addr := newTestServer(t)
	before := srv.Scheduler().Available()
	for i := 0; i < 3; i++ {
		cfg := clientCfg(fmt.Sprintf("budget-%d", i))
		ids, targets := batchFor(cfg, uint64(30+i))
		c, err := client.Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Teardown is asynchronous to Close; wait for the budget to drain
	// back.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Scheduler().Available() == before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("budget leaked: %d != %d", srv.Scheduler().Available(), before)
}

// TestDuplicateHelloIsRefused: a second Hello with a live session's
// client ID is refused with "already has a live session" and takes
// nothing: the scheduler's identity table and schedulable bytes stay as
// they were. The live session keeps its enrollment and steps on, with
// the losses of a server that never saw the duplicate.
func TestDuplicateHelloIsRefused(t *testing.T) {
	cfg := clientCfg("twice")
	ids, targets := batchFor(cfg, 4)
	const steps, duplicateAt = 4, 2
	losses := func(duplicate bool) []float64 {
		srv, addr := newTestServer(t)
		sch := srv.Scheduler()
		c, err := client.Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out []float64
		for step := 0; step < steps; step++ {
			if duplicate && step == duplicateAt {
				sess := liveSession(t, srv, cfg.ClientID)
				handle, identities, schedulable := sess.handle, sch.Stats().Identities, sch.Schedulable()
				if dup, err := client.Dial(addr, cfg); err == nil {
					dup.Close()
					t.Fatal("a second Hello with a live session's ID was admitted")
				} else if !strings.Contains(err.Error(), "already has a live session") {
					t.Fatalf("second Hello: %v, want a refusal naming the live session", err)
				}
				if liveSession(t, srv, cfg.ClientID) != sess || sess.handle != handle {
					t.Error("the refused Hello replaced the live session or its enrollment")
				}
				if got := sch.Stats().Identities; got != identities {
					t.Errorf("%d identities after the refusal, %d before", got, identities)
				}
				if got := sch.Schedulable(); got != schedulable {
					t.Errorf("%d bytes schedulable after the refusal, %d before", got, schedulable)
				}
			}
			res, err := c.Step(ids, targets)
			if err != nil {
				t.Fatalf("step %d (duplicate Hello: %v): %v", step, duplicate, err)
			}
			out = append(out, res.Loss)
		}
		return out
	}
	want, got := losses(false), losses(true)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("step %d: loss %v beside a refused duplicate, %v without one", i, got[i], want[i])
		}
	}
}

// TestSchedulerForgetsDepartedClients: the scheduler's identity table
// returns to its size after many short sessions with distinct IDs, each
// granted memory once (so resident) and then gone.
func TestSchedulerForgetsDepartedClients(t *testing.T) {
	srv, addr := newTestServer(t)
	before := srv.Scheduler().Stats().Identities
	for i := 0; i < 200; i++ {
		cfg := clientCfg(fmt.Sprintf("brief-%d", i))
		ids, targets := batchFor(cfg, uint64(i))
		c, err := client.Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Teardown is asynchronous to Close.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Scheduler().Stats().Identities != before {
		if time.Now().After(deadline) {
			t.Fatalf("identity table holds %d records after 200 departed sessions, want %d",
				srv.Scheduler().Stats().Identities, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitFor polls cond until it holds or 5s pass, then fails with what.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseReturnsWhileARequestWaits: a hog holds every schedulable
// byte, so a client's forward waits for memory that nobody frees, served
// serially or as a batch (a filler request too large for what the
// client's teardown gives back waits ahead of it, so it joins one).
// Close still returns: the waiting request ends with an error and its
// one wait span, the client's step fails, the request leaves the
// scheduler's queue and is never granted, and every goroutine the
// server and client started ends. Close runs in a goroutine, so a Close that hangs fails the test
// instead of hanging it.
func TestCloseReturnsWhileARequestWaits(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch sched.BatchPolicy
	}{
		{"serial", sched.BatchPolicy{}},
		{"batched", sched.BatchPolicy{MaxSize: 2, MaxHold: 10 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tensor.Parallelism() // the shared compute pool outlives any server: start it first
			before := runtime.NumGoroutine()
			tracer := obs.NewTracer(obs.NewWallClock())
			srv, addr := startServer(t, Config{Batch: tc.batch, Tracer: tracer})
			cfg := clientCfg("waits")
			c, err := client.Dial(addr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sch := srv.Scheduler()
			hog, persist := sch.Schedulable(), sch.Total()-sch.Schedulable()
			if err := sch.Submit("hog", sched.KindBackward, hog, func() {}); err != nil {
				t.Fatal(err)
			}
			filler := 0
			if tc.batch.Enabled() {
				filler = 1
				if err := sch.Submit("filler", sched.KindForward, persist+1, func() {}); err != nil {
					t.Fatal(err)
				}
			}
			ids, targets := batchFor(cfg, 1)
			stepped := make(chan error, 1)
			go func() {
				_, err := c.Step(ids, targets)
				stepped <- err
			}()
			waitFor(t, "the client's forward to queue", func() bool { return sch.QueueDepth() == filler+1 })

			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return while a request waited for memory")
			}
			select {
			case err := <-stepped:
				if err == nil {
					t.Fatal("the waiting step succeeded on a closed server")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the waiting step never returned")
			}
			// Close returned, so the session's teardown gave its reservation
			// back: a request still queued could have been granted then.
			if got := sch.QueueDepth(); got != filler {
				t.Errorf("queue depth %d after Close, want %d: the waiting request stayed queued", got, filler)
			}
			if got, want := sch.Available(), sch.Total()-hog; got != want {
				t.Errorf("%d bytes available after Close, want %d: something but the hog holds memory", got, want)
			}
			waits := 0
			for _, sp := range tracer.Spans() {
				if sp.Track == cfg.ClientID && sp.Name == obs.SpanWaitForward.Name {
					waits++
				}
			}
			if waits != 1 {
				t.Errorf("%d %s spans for the waiting forward, want 1", waits, obs.SpanWaitForward.Name)
			}
			_ = c.Close()
			waitFor(t, "the goroutine count to come back", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}
