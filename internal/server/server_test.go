package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/sched"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
)

const weightSeed = 1234

func testModelCfg() model.Config { return model.OPTTiny() }

func newTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	return startServer(t, Config{})
}

// startServer serves cfg on a loopback listener until the test ends; a
// nil Store is filled with a fresh test store.
func startServer(t *testing.T, cfg Config) (*Server, string) {
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
// the client get this far. The need is a real Reserve of everything
// Available() reports — the path a joining tenant's reservation takes.
type revokingConn struct {
	net.Conn
	sched  *sched.Scheduler
	writes int
}

func (c *revokingConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes >= 3 && c.writes%2 == 1 {
		if err := c.sched.Reserve("probe", c.sched.Available()); err != nil {
			return 0, err
		}
		c.sched.Complete("probe")
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
// different data and different adapter kinds — the heterogeneity §3.1
// motivates — and verifies isolation plus base integrity.
func TestConcurrentClientsShareBase(t *testing.T) {
	srv, addr := newTestServer(t)

	specs := []adapter.Spec{
		adapter.LoRASpec(adapter.DefaultLoRA()),
		adapter.PrefixSpec(adapter.PrefixConfig{PrefixLen: 4}),
		adapter.BottleneckSpec(adapter.BottleneckConfig{Hidden: 12}),
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
		if _, err := client.Dial(addr, cfg); !errors.Is(err, client.ErrRejected) {
			t.Fatalf("err = %v", err)
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

// TestAbruptDisconnectReleasesInstance: a client vanishing mid-session
// — here with a forward's cache still parked — must not leak its
// instance, its parked grant or its memory reservation.
func TestAbruptDisconnectReleasesInstance(t *testing.T) {
	srv, addr := newTestServer(t)
	cfg := clientCfg("flaky")
	ids, targets := batchFor(cfg, 9)
	sch := srv.Scheduler()
	budget := sch.Available()

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
	// Abrupt close without Bye.
	_ = c.Close()

	// The same client id must eventually be admitted again (the old
	// instance released). Retry a few times while teardown races.
	var again *client.Client
	for i := 0; i < 100; i++ {
		again, err = client.Dial(addr, cfg)
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("re-admission failed: %v", err)
	}
	if _, err := again.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
	_ = again.Close()
	deadline := time.Now().Add(5 * time.Second)
	for sch.Available() != budget || sch.Schedulable() != budget {
		if time.Now().After(deadline) {
			t.Fatalf("leak: available %d, schedulable %d, parked %d of budget %d",
				sch.Available(), sch.Schedulable(), sch.Parked(), budget)
		}
		time.Sleep(time.Millisecond)
	}
	if p := sch.Parked(); p != 0 {
		t.Fatalf("%d parked bytes outlived their session", p)
	}
}

// TestServerRejectsOversizedGeometry: the profiled batch/seq bound the
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
	// Smaller-than-profiled geometry works (profiled 2x6).
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

	// Larger-than-profiled geometry is rejected.
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

// TestMaxClientsAdmission: the cap rejects the (n+1)th client with a
// clear reason, and a slot frees up when a client leaves.
func TestMaxClientsAdmission(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, MaxClients: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	addr := l.Addr().String()

	c1, err := client.Dial(addr, clientCfg("cap-1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(addr, clientCfg("cap-2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Dial(addr, clientCfg("cap-3")); !errors.Is(err, client.ErrRejected) {
		t.Fatalf("third client err = %v, want rejection", err)
	}
	// Freeing a slot admits a new client.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	var c3 *client.Client
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c3, err = client.Dial(addr, clientCfg("cap-3"))
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("slot never freed: %v", err)
	}
	defer c3.Close()
}
