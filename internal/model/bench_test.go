package model

import (
	"testing"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// BenchmarkAttention measures one multi-head attention forward+backward
// at a shape big enough to exercise the per-(batch,head) fan-out.
func BenchmarkAttention(b *testing.B) {
	cfg := Config{
		Name: "bench", Family: FamilyOPT,
		Vocab: 96, Dim: 256, Layers: 2, Heads: 8, FFN: 512, MaxSeq: 128,
	}
	w := &initWalk{rng: tensor.NewRNG(1)}
	attn := newAttention(w, cfg)
	w.fill()
	// Wire up the arena exactly as a block inside a model would, and
	// release the outputs the way Block.Forward/Backward do, so the
	// bench measures the steady-state reuse path.
	sc := tensor.NewScratch()
	attn.scratch = sc
	setOpScratch(sc, attn.Q, attn.K, attn.V, attn.O)
	batch, seq := 4, 64
	x := tensor.NewNormal(tensor.NewRNG(2), 0.5, batch*seq, cfg.Dim)
	dy := tensor.NewNormal(tensor.NewRNG(3), 0.1, batch*seq, cfg.Dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, cache, err := attn.Forward(x, batch, seq, true)
		if err != nil {
			b.Fatal(err)
		}
		dx, err := attn.Backward(cache, dy, true)
		if err != nil {
			b.Fatal(err)
		}
		sc.Put(y, dx)
	}
}

// BenchmarkTrainStep measures one full local fine-tuning step of
// OPTTiny (forward, backward, Adam update, grad zeroing). Its B/op is
// the steady-state allocation figure quoted in docs/PERFORMANCE.md.
func BenchmarkTrainStep(b *testing.B) {
	m, err := New(tensor.NewRNG(7), OPTTiny())
	if err != nil {
		b.Fatal(err)
	}
	opt := nn.NewAdam(1e-3)
	params := m.Params()
	batch, seq := 4, 32
	rng := tensor.NewRNG(9)
	ids := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	for i := range ids {
		ids[i] = rng.Intn(OPTTiny().Vocab)
		targets[i] = rng.Intn(OPTTiny().Vocab)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.LossAndGrad(ids, targets, batch, seq); err != nil {
			b.Fatal(err)
		}
		if err := opt.Step(params); err != nil {
			b.Fatal(err)
		}
		nn.ZeroGrads(params)
	}
}

// BenchmarkModelNew builds a perf-mid model — the one large_plain and
// tenants_batched serve — at the pool's configured parallelism ("pool")
// and pinned to one worker ("serial"): the parallel weight fill's
// speedup in one -bench run.
func BenchmarkModelNew(b *testing.B) {
	cfg := Config{
		Name: "perf-mid", Family: FamilyOPT,
		Vocab: 96, Dim: 128, Layers: 4, Heads: 4, FFN: 512, MaxSeq: 128,
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(tensor.NewRNG(7), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pool", run)
	b.Run("serial", func(b *testing.B) {
		prev := tensor.Parallelism()
		tensor.SetParallelism(1)
		defer tensor.SetParallelism(prev)
		run(b)
	})
}
