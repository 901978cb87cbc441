package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/gpu"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/obs"
	"menos/internal/server"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
)

const weightSeed = 77

func startServer(t *testing.T) string {
	t.Helper()
	return startServerFor(t, model.OPTTiny())
}

// startServerFor serves cfg's base model, seeded with weightSeed.
func startServerFor(t testing.TB, cfg model.Config) string {
	t.Helper()
	store, err := share.NewStore(tensor.NewRNG(weightSeed), cfg)
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

// TestClientHoldsOnlyItsSections: a client builds its input and
// output sections and no body block. For both families, at the
// shallowest and the deepest cut, it holds no block at index >= Cut,
// its base parameter count is the embeddings', Cut blocks' and the
// head's, and each base parameter is bit-equal to the same-named one of
// the full model the server was built from.
func TestClientHoldsOnlyItsSections(t *testing.T) {
	// baseOf sees through the client's LoRA wrapping to the projection
	// it adapts.
	baseOf := func(op nn.Op) nn.Op {
		if l, ok := op.(*adapter.LoRALinear); ok {
			return l.Base
		}
		return op
	}
	for _, mcfg := range []model.Config{model.OPTTiny(), model.LlamaTiny()} {
		addr := startServerFor(t, mcfg)
		full, err := model.New(tensor.NewRNG(weightSeed), mcfg)
		if err != nil {
			t.Fatal(err)
		}
		fullParams, err := full.BaseParams()
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]*tensor.Tensor, len(fullParams))
		for _, p := range fullParams {
			byName[p.Name] = p.Value
		}
		for _, cut := range []int{1, mcfg.Layers - 1} {
			cfg := validCfg(fmt.Sprintf("sections-%s-%d", mcfg.Name, cut))
			cfg.Model, cfg.Cut = mcfg, cut
			c, err := client.Dial(addr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			local := client.LocalModel(c)
			if len(local.Blocks) != cut {
				t.Fatalf("%s cut %d: the client holds %d blocks", mcfg.Name, cut, len(local.Blocks))
			}
			// The same model with the adapter's wrapping peeled off.
			pristine := *local
			pristine.Blocks = make([]*model.Block, cut)
			for i, b := range local.Blocks {
				pristine.Blocks[i] = &model.Block{
					Norm1: b.Norm1, Norm2: b.Norm2,
					Attn: &model.Attention{Q: baseOf(b.Attn.Q), K: baseOf(b.Attn.K), V: baseOf(b.Attn.V), O: baseOf(b.Attn.O)},
					FFN:  &model.FFN{Up: baseOf(b.FFN.Up), Down: baseOf(b.FFN.Down)},
				}
				if b.FFN.Gate != nil {
					pristine.Blocks[i].FFN.Gate = baseOf(b.FFN.Gate)
				}
			}
			params, err := pristine.BaseParams()
			if err != nil {
				t.Fatal(err)
			}
			var count int64
			for _, p := range params {
				want, ok := byName[p.Name]
				if !ok {
					t.Fatalf("%s cut %d: %s is not a parameter of the full model", mcfg.Name, cut, p.Name)
				}
				for i, v := range p.Value.Data() {
					if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
						t.Fatalf("%s cut %d: %s[%d] = %v, full model has %v", mcfg.Name, cut, p.Name, i, v, want.Data()[i])
					}
				}
				count += int64(p.Value.Len())
			}
			if want := mcfg.EmbeddingParams() + int64(cut)*mcfg.BlockParams() + mcfg.HeadParams(); count != want {
				t.Errorf("%s cut %d: the client holds %d base parameters, want %d", mcfg.Name, cut, count, want)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkClientSetup is one tenant's set-up at tenants_batched's
// shape: dial, build the perf-mid input and output sections, attach a
// rank-8 LoRA and handshake with a live server, then say goodbye.
func BenchmarkClientSetup(b *testing.B) {
	mcfg := model.Config{
		Name: "perf-mid", Family: model.FamilyOPT,
		Vocab: 96, Dim: 128, Layers: 4, Heads: 4, FFN: 512, MaxSeq: 128,
	}
	addr := startServerFor(b, mcfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := validCfg(fmt.Sprintf("setup-%d", i))
		cfg.Model, cfg.Batch, cfg.Seq = mcfg, 1, 32
		c, err := client.Dial(addr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
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
	cfg.Cut = 0 // -> DefaultCut
	cfg.LR = 0  // -> 1e-3
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

// TestBreakdownAccumulates: every step lands in the client's comm and
// comp histograms, which sum to the times the steps returned.
func TestBreakdownAccumulates(t *testing.T) {
	addr := startServer(t)
	cfg := validCfg("breakdown")
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, targets := batch(16, 3)
	var comm, comp time.Duration
	for i := 0; i < 3; i++ {
		res, err := c.Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
		comm += res.CommTime
		comp += res.CompTime
	}
	if n := reg.Counter(obs.MetricClientIterations).Value(); n != 3 {
		t.Fatalf("iterations = %d", n)
	}
	for _, h := range []struct {
		name string
		want time.Duration
	}{{obs.MetricClientCommSeconds, comm}, {obs.MetricClientCompSeconds, comp}} {
		got := reg.Histogram(h.name, nil)
		if got.Count() != 3 || math.Abs(got.Sum()-h.want.Seconds()) > 1e-9 {
			t.Fatalf("%s: %d observations summing to %gs, want 3 summing to %gs",
				h.name, got.Count(), got.Sum(), h.want.Seconds())
		}
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
