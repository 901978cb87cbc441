package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"menos/internal/client"
	"menos/internal/model"
	"menos/internal/quant"
	"menos/internal/share"
	"menos/internal/tensor"
)

// TestWarmStepAllocatesNothing pins the steady state of a split step
// over loopback: once warm, every tensor either peer hands over — the
// decoded activations and gradients, the sent ones, logits, dlogits,
// the server's cached input — comes back to its arena, so the client's
// arena and the server session's arena serve every Get from a free
// list, the shared base's arena serves none, and the Go heap sees only
// a step's small bookkeeping. Serial fp32 Step and depth-2 int8
// StepPipelined are both covered.
func TestWarmStepAllocatesNothing(t *testing.T) {
	const warm, calls = 8, 40
	// maxAllocPerStep bounds the bytes both peers together allocate per
	// step (one micro-batch's forward and backward): the caches' and
	// messages' small structs and the scheduler's grant hand-off, about
	// 4.2 KiB at this shape. A tensor of the step is 4 KiB, so a step
	// that misses the arena once more crosses it. Before every step
	// tensor went back to the arena a step allocated 112 KB.
	const maxAllocPerStep = 6 << 10
	for _, tc := range []struct {
		name  string
		codec quant.Codec
		micro int // 0: Step; otherwise StepPipelined over this many
	}{
		{"fp32-step", quant.CodecFP32, 0},
		{"int8-pipelined", quant.CodecInt8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, Config{WireCodec: tc.codec})
			cfg := clientCfg("steady-" + tc.name)
			cfg.Batch, cfg.Seq, cfg.WireCodec = 1, 16, tc.codec
			c, err := client.Dial(addr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ids, targets := batchFor(cfg, 5)
			batches := make([]client.MicroBatch, max(tc.micro, 1))
			for i := range batches {
				batches[i] = client.MicroBatch{IDs: ids, Targets: targets}
			}
			step := func() {
				var err error
				if tc.micro == 0 {
					_, err = c.Step(ids, targets)
				} else {
					_, err = c.StepPipelined(batches)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for range warm {
				step()
			}
			arenas := map[string]interface{ Stats() (uint64, uint64) }{
				"client": c.Scratch(),
				"server": liveSession(t, srv, cfg.ClientID).scratch,
			}
			gets0, hits0 := map[string]uint64{}, map[string]uint64{}
			for name, a := range arenas {
				gets0[name], hits0[name] = a.Stats()
			}
			masterGets0, _ := srv.scratch().Stats()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for range calls {
				step()
			}
			steps := uint64(calls * len(batches))
			runtime.ReadMemStats(&m1)
			for name, a := range arenas {
				gets, hits := a.Stats()
				if misses := (gets - gets0[name]) - (hits - hits0[name]); misses != 0 {
					t.Errorf("%s arena: %d misses in %d warm steps (%d gets)", name, misses, steps, gets-gets0[name])
				}
			}
			if gets, _ := srv.scratch().Stats(); gets != masterGets0 {
				t.Errorf("shared base's arena: %d gets in %d serial steps, want 0", gets-masterGets0, steps)
			}
			perStep := (m1.TotalAlloc - m0.TotalAlloc) / steps
			t.Logf("%d B allocated per warm step", perStep)
			if perStep > maxAllocPerStep {
				t.Errorf("%d B allocated per warm step, want <= %d", perStep, maxAllocPerStep)
			}
		})
	}
}

// TestNoGradCallsReturnTheirTensors: Evaluate and Generate hand their
// x_c, x_s, logits and dlogits back to the client's arena as a step
// does, so once warm they miss it never.
func TestNoGradCallsReturnTheirTensors(t *testing.T) {
	_, addr := startServer(t, Config{})
	cfg := clientCfg("steady-eval")
	cfg.Batch, cfg.Seq = 1, 16
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, targets := batchFor(cfg, 5)
	call := func() {
		if _, err := c.Evaluate(ids, targets); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Generate(tensor.NewRNG(1), ids[:4], 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		call()
	}
	gets0, hits0 := c.Scratch().Stats()
	for range 10 {
		call()
	}
	gets, hits := c.Scratch().Stats()
	if misses := (gets - gets0) - (hits - hits0); misses != 0 {
		t.Errorf("client arena: %d misses in 10 warm Evaluate+Generate calls (%d gets)", misses, gets-gets0)
	}
}

// liveSession returns the server's live session id.
func liveSession(t testing.TB, srv *Server, id string) *session {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	sess, ok := srv.sessions[id]
	if !ok {
		t.Fatalf("no live session %q", id)
	}
	return sess
}

// TestSessionsStepOnTheirOwnArenas: two tenants stepping at once each
// draw only from their own session's arena. Alone, a warm tenant's step
// takes g tensors from its arena; then the two step concurrently, a
// different number of steps each, and each arena has served exactly its
// own tenant's steps times g while the shared base's arena served none.
// On the test server's ample budget every forward keeps its cache, so g
// is one number (no re-forward is checked). Run under -race by `make
// test-stress`.
func TestSessionsStepOnTheirOwnArenas(t *testing.T) {
	srv, addr := startServer(t, Config{})
	steps := []int{12, 20}
	names := []string{"arena-a", "arena-b"}
	clients := make([]*client.Client, len(steps))
	arenas := make([]*tensor.Scratch, len(steps))
	ids, targets := make([][]int, len(steps)), make([][]int, len(steps))
	for i := range clients {
		cfg := clientCfg(names[i])
		cfg.Batch, cfg.Seq = 1, 16
		c, err := client.Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		ids[i], targets[i] = batchFor(cfg, uint64(7+i))
	}
	perStep := make([]uint64, len(clients))
	for i, c := range clients {
		for range 3 {
			if _, err := c.Step(ids[i], targets[i]); err != nil {
				t.Fatal(err)
			}
		}
		arenas[i] = liveSession(t, srv, names[i]).scratch
		g0, _ := arenas[i].Stats()
		if _, err := c.Step(ids[i], targets[i]); err != nil {
			t.Fatal(err)
		}
		g1, _ := arenas[i].Stats()
		perStep[i] = g1 - g0
	}
	if perStep[0] == 0 || perStep[0] != perStep[1] {
		t.Fatalf("a lone warm step takes %v tensors from the two arenas, want one positive count", perStep)
	}
	if arenas[0] == arenas[1] {
		t.Fatal("two sessions share one arena")
	}

	gets0 := make([]uint64, len(arenas))
	for i, a := range arenas {
		gets0[i], _ = a.Stats()
	}
	master0, _ := srv.scratch().Stats()
	refwd0 := srv.Stats().Reforwards
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range steps[i] {
				if _, err := c.Step(ids[i], targets[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if refwd := srv.Stats().Reforwards - refwd0; refwd != 0 {
		t.Fatalf("%d re-forwards on an ample budget: a step's gets are not one number", refwd)
	}
	for i, a := range arenas {
		gets, _ := a.Stats()
		if got, want := gets-gets0[i], uint64(steps[i])*perStep[0]; got != want {
			t.Errorf("session %d's arena: %d gets in its %d concurrent steps, want %d", i, got, steps[i], want)
		}
	}
	if master, _ := srv.scratch().Stats(); master != master0 {
		t.Errorf("shared base's arena: %d gets while the sessions stepped, want 0", master-master0)
	}
}

// TestSessionArenaStaysWithinItsPrice: what a session holds in its
// arena at once over warm steps — its high-water mark — is at most the
// larger of the two demands the handshake priced, M_f and M_b, for
// both model families at two sequence lengths.
func TestSessionArenaStaysWithinItsPrice(t *testing.T) {
	for _, mc := range []model.Config{model.OPTTiny(), model.LlamaTiny()} {
		for _, seq := range []int{16, 64} {
			t.Run(fmt.Sprintf("%s/2x%d", mc.Name, seq), func(t *testing.T) {
				store, err := share.NewStore(tensor.NewRNG(weightSeed), mc)
				if err != nil {
					t.Fatal(err)
				}
				srv, addr := startServer(t, Config{Store: store})
				cfg := clientCfg("priced")
				cfg.Model, cfg.Batch, cfg.Seq = mc, 2, seq
				c, err := client.Dial(addr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				ids, targets := batchFor(cfg, 3)
				for range 3 {
					if _, err := c.Step(ids, targets); err != nil {
						t.Fatal(err)
					}
				}
				sess := liveSession(t, srv, cfg.ClientID)
				sess.scratch.ResetPeak()
				for range 5 {
					if _, err := c.Step(ids, targets); err != nil {
						t.Fatal(err)
					}
				}
				_, peak := sess.scratch.Outstanding()
				price := max(sess.mf, sess.mb)
				t.Logf("arena high-water %d B, priced max(M_f, M_b) = max(%d, %d) B; %d B retained between steps",
					peak, sess.mf, sess.mb, sess.scratch.RetainedBytes())
				if peak > price {
					t.Errorf("session arena high-water %d B exceeds its price max(M_f, M_b) = %d B", peak, price)
				}
			})
		}
	}
}
