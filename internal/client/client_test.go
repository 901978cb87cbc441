package client_test

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/gpu"
	"menos/internal/model"
	"menos/internal/server"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
)

const weightSeed = 77

func startServer(t *testing.T) string {
	t.Helper()
	store, err := share.NewStore(tensor.NewRNG(weightSeed), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store})
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

func validCfg(id string) client.Config {
	return client.Config{
		ClientID:    id,
		Model:       model.OPTTiny(),
		WeightSeed:  weightSeed,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 5,
		Batch:       2,
		Seq:         8,
	}
}

func batch(n int, seed uint64) ([]int, []int) {
	r := tensor.NewRNG(seed)
	ids := make([]int, n)
	targets := make([]int, n)
	for i := range ids {
		ids[i] = r.Intn(model.OPTTiny().Vocab)
		targets[i] = r.Intn(model.OPTTiny().Vocab)
	}
	return ids, targets
}

func TestConfigValidation(t *testing.T) {
	addr := startServer(t)
	tests := []struct {
		name   string
		mutate func(*client.Config)
	}{
		{"missing id", func(c *client.Config) { c.ClientID = "" }},
		{"zero batch", func(c *client.Config) { c.Batch = 0 }},
		{"zero seq", func(c *client.Config) { c.Seq = 0 }},
		{"bad optimizer", func(c *client.Config) { c.Optimizer = "nope" }},
		{"bad adapter", func(c *client.Config) { c.Adapter = adapter.Spec{Kind: adapter.KindLoRA} }},
		{"bad model", func(c *client.Config) { c.Model.Dim = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validCfg("validate")
			tt.mutate(&cfg)
			if _, err := client.Dial(addr, cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:1", validCfg("x")); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestStepBatchSizeValidation(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, validCfg("bsize"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Step([]int{1, 2}, []int{1, 2}); err == nil {
		t.Fatal("short batch accepted")
	}
	ids, _ := batch(16, 1)
	if _, err := c.Step(ids, []int{1}); err == nil {
		t.Fatal("mismatched targets accepted")
	}
	if _, err := c.Evaluate([]int{1}, []int{1}); err == nil {
		t.Fatal("short evaluate batch accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	addr := startServer(t)
	cfg := validCfg("defaults")
	cfg.Cut = 0        // -> DefaultCut
	cfg.LR = 0         // -> 1e-3
	cfg.Optimizer = "" // -> adam
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, targets := batch(16, 2)
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
}

func TestDemandsReported(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, validCfg("demands"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fwd, bwd := c.Demands()
	if fwd <= 0 || bwd <= 0 {
		t.Fatalf("demands = %d, %d", fwd, bwd)
	}
	if bwd <= fwd {
		t.Fatalf("backward demand %d not above forward %d", bwd, fwd)
	}
}

func TestBreakdownAccumulates(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, validCfg("breakdown"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, targets := batch(16, 3)
	for i := 0; i < 3; i++ {
		if _, err := c.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
	}
	if c.Breakdown().Iterations() != 3 {
		t.Fatalf("iterations = %d", c.Breakdown().Iterations())
	}
}

// TestAdapterCheckpointResume: save the adapter mid-session, start a
// fresh client, restore, and verify the evaluation matches.
func TestAdapterCheckpointResume(t *testing.T) {
	addr := startServer(t)
	cfg := validCfg("ckpt-a")
	c1, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := batch(16, 4)
	for i := 0; i < 5; i++ {
		if _, err := c1.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c1.SaveAdapter(&buf); err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), buf.Bytes()...)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.ClientID = "ckpt-b"
	c2, err := client.Dial(addr, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.LoadAdapter(bytes.NewReader(snapshot)); err != nil {
		t.Fatal(err)
	}
	// Restored client-side adapter: further steps work.
	if _, err := c2.Step(ids, targets); err != nil {
		t.Fatal(err)
	}

	// Wrong-shape restore rejected.
	cfg3 := cfg
	cfg3.ClientID = "ckpt-c"
	cfg3.Adapter = adapter.Spec{Kind: adapter.KindLoRA, Rank: 4, Alpha: 16,
		Targets: []adapter.Target{adapter.TargetQ, adapter.TargetV}}
	c3, err := client.Dial(addr, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.LoadAdapter(bytes.NewReader(snapshot)); err == nil {
		t.Fatal("rank-4 client loaded rank-8 checkpoint")
	}
}

// TestServerErrorSurfaced: the client maps server ErrorMsg frames to
// ErrRemote.
func TestServerErrorSurfaced(t *testing.T) {
	// A fake "server" that acks the handshake then always errors.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := split.ReadMessage(conn); err != nil {
			return
		}
		_ = split.WriteMessage(conn, &split.HelloAck{OK: true})
		if _, err := split.ReadMessage(conn); err != nil {
			return
		}
		_ = split.WriteMessage(conn, &split.ErrorMsg{Reason: "injected failure"})
	}()

	c, err := client.Dial(l.Addr().String(), validCfg("remote-err"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, targets := batch(16, 5)
	_, err = c.Step(ids, targets)
	if !errors.Is(err, client.ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

// TestGarbageServerRejected: a non-protocol peer produces a clean
// error, not a hang or panic.
func TestGarbageServerRejected(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := split.ReadMessage(conn); err != nil {
			return
		}
		_, _ = conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
	}()
	if _, err := client.Dial(l.Addr().String(), validCfg("garbage")); err == nil {
		t.Fatal("garbage handshake accepted")
	}
}

// TestServerOOMRejection: a server with a tiny GPU budget rejects the
// client at admission with a clear reason, instead of failing later.
func TestServerOOMRejection(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	// Budget barely above the base model: reservations cannot fit.
	budget := store.BaseParamBytes() + 1<<20
	srv, err := server.New(server.Config{
		Store: store,
		GPU:   gpu.NewDevice(gpu.Spec{Name: "tiny", MemoryBytes: budget}),
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

	_, err = client.Dial(l.Addr().String(), validCfg("oom"))
	if !errors.Is(err, client.ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
}

// TestGenerateThroughSplit: autoregressive decoding where the body
// runs on the server — one round trip per token.
func TestGenerateThroughSplit(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, validCfg("gen"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Generate(tensor.NewRNG(1), []int{1, 2, 3}, 5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("generated %d tokens", len(out))
	}
	for _, id := range out {
		if id < 0 || id >= model.OPTTiny().Vocab {
			t.Fatalf("token %d out of vocab", id)
		}
	}
	// Greedy decoding through the split equals greedy decoding on an
	// identical local model (the inference-time equivalence claim).
	local, err := model.New(tensor.NewRNG(weightSeed), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	// Note: the client has adapters attached (fresh LoRA = identity),
	// so the local un-adapted model matches exactly.
	wantSeq, err := local.Generate(tensor.NewRNG(1), []int{1, 2, 3}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotSeq, err := c.Generate(tensor.NewRNG(1), []int{1, 2, 3}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSeq {
		if wantSeq[i] != gotSeq[i] {
			t.Fatalf("split greedy decoding diverges from local at %d: %v vs %v",
				i, gotSeq, wantSeq)
		}
	}
	// Validation.
	if _, err := c.Generate(tensor.NewRNG(1), nil, 2, 1); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, err := c.Generate(tensor.NewRNG(1), []int{999}, 2, 1); err == nil {
		t.Fatal("out-of-vocab prompt accepted")
	}
	if _, err := c.Generate(tensor.NewRNG(1), []int{1}, 2, -1); err == nil {
		t.Fatal("negative temperature accepted")
	}
}

// TestGenerateAfterSteps: generation interleaves with training steps
// without corrupting iteration bookkeeping.
func TestGenerateAfterSteps(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, validCfg("gen-mix"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, targets := batch(16, 8)
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Generate(tensor.NewRNG(2), []int{1, 2}, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
}

// TestGradientAccumulation: micro-steps accumulate on both sides of
// the split; parameters move only on the applying step, and the result
// after accumulation matches a local model driven identically.
func TestGradientAccumulation(t *testing.T) {
	addr := startServer(t)
	cfg := validCfg("accum")
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids1, targets1 := batch(16, 10)
	ids2, targets2 := batch(16, 11)

	// Evaluation before any apply must be unchanged by a non-applying
	// micro-step.
	before, err := c.Evaluate(ids1, targets1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MicroStep(ids1, targets1, false); err != nil {
		t.Fatal(err)
	}
	mid, err := c.Evaluate(ids1, targets1)
	if err != nil {
		t.Fatal(err)
	}
	if mid != before {
		t.Fatalf("non-applying micro-step moved parameters: %v -> %v", before, mid)
	}
	// The applying step folds both micro-batches in.
	if _, err := c.MicroStep(ids2, targets2, true); err != nil {
		t.Fatal(err)
	}
	after, err := c.Evaluate(ids1, targets1)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("applying step did not move parameters")
	}
}

// TestGenerateIncremental: KV-cached split decoding matches the
// non-cached split path token-for-token under greedy decoding, and the
// server-side KV reservation is released when the session closes.
func TestGenerateIncremental(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	c, err := client.Dial(l.Addr().String(), validCfg("inc"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prompt := []int{1, 2, 3}
	slow, err := c.Generate(tensor.NewRNG(1), prompt, 6, 0)
	if err != nil {
		t.Fatal(err)
	}

	before := srv.Scheduler().Available()
	fast, kvBytes, err := c.GenerateIncremental(tensor.NewRNG(1), prompt, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kvBytes <= 0 {
		t.Fatal("no KV bytes reported")
	}
	// DecodeClose is processed asynchronously; wait for the reserve to
	// drain back.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Scheduler().Available() != before && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := srv.Scheduler().Available(); got != before {
		t.Fatalf("KV reservation leaked: %d != %d", got, before)
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("token %d: windowed %v vs incremental %v", i, slow, fast)
		}
	}

	// Training still works after a decode session.
	ids, targets := batch(16, 12)
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}

	// Over-capacity sessions are rejected cleanly.
	long := make([]int, model.OPTTiny().MaxSeq+1)
	for i := range long {
		long[i] = 1
	}
	if _, _, err := c.GenerateIncremental(tensor.NewRNG(1), long, 1, 0); err == nil {
		t.Fatal("over-capacity session accepted")
	}
	// Validation.
	if _, _, err := c.GenerateIncremental(tensor.NewRNG(1), nil, 1, 0); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, _, err := c.GenerateIncremental(tensor.NewRNG(1), []int{1}, 1, -1); err == nil {
		t.Fatal("negative temperature accepted")
	}
}
