package server

import (
	"runtime"
	"testing"

	"menos/internal/client"
	"menos/internal/quant"
	"menos/internal/tensor"
)

// TestWarmStepAllocatesNothing pins the steady state of a split step
// over loopback: once warm, every tensor either peer hands over — the
// decoded activations and gradients, the sent ones, logits, dlogits,
// the server's cached input — comes back to its arena, so the client's
// arena and the server's shared-base arena serve every Get from a free
// list, and the Go heap sees only a step's small bookkeeping. Serial
// fp32 Step and depth-2 int8 StepPipelined are both covered.
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
				"server": srv.store.Master().Scratch(),
			}
			gets0, hits0 := map[string]uint64{}, map[string]uint64{}
			for name, a := range arenas {
				gets0[name], hits0[name] = a.Stats()
			}
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
