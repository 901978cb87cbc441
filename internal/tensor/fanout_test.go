package tensor_test

import (
	"math"
	"sync"
	"testing"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

// These tests run whole models over the pool, so they live in the
// external test package: the model packages import this one.

// trainOPTTiny builds OPTTiny from seed and takes steps Adam steps over
// batch x seq tokens drawn from dataSeed, returning the model and the
// loss of every step.
func trainOPTTiny(seed, dataSeed uint64, batch, seq, steps int) (*model.Transformer, []float64, error) {
	m, err := model.New(tensor.NewRNG(seed), model.OPTTiny())
	if err != nil {
		return nil, nil, err
	}
	rng := tensor.NewRNG(dataSeed)
	ids, targets := make([]int, batch*seq), make([]int, batch*seq)
	for i := range ids {
		ids[i], targets[i] = rng.Intn(m.Cfg.Vocab), rng.Intn(m.Cfg.Vocab)
	}
	opt, params := nn.NewAdam(1e-3), m.Params()
	losses := make([]float64, 0, steps)
	for step := 0; step < steps; step++ {
		res, err := m.LossAndGrad(ids, targets, batch, seq)
		if err != nil {
			return nil, nil, err
		}
		if err := opt.Step(params); err != nil {
			return nil, nil, err
		}
		nn.ZeroGrads(params)
		losses = append(losses, res.Loss)
	}
	return m, losses, nil
}

// TestLoRABodyStaysOnTheCaller pins what the fan-out rule does at the
// benchmark's shapes: a server's LoRA body forward and backward at
// small_plain's shape (OPTTiny, batch 1 x seq 16) and at large_plain's
// (perf-mid, batch 2 x seq 32) hand nothing to the pool, though a
// second worker is there to take it. Attention used to hand off every
// (batch, head) unit, a ≈ 115 µs wake for a few microseconds of work.
func TestLoRABodyStaysOnTheCaller(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)
	tensor.SetParallelism(2)

	perfMid := model.Config{
		Name: "perf-mid", Family: model.FamilyOPT,
		Vocab: 96, Dim: 128, Layers: 4, Heads: 4, FFN: 512, MaxSeq: 128,
	}
	for _, c := range []struct {
		workload   string
		cfg        model.Config
		batch, seq int
	}{
		{"small_plain", model.OPTTiny(), 1, 16},
		{"large_plain", perfMid, 2, 32},
	} {
		base, err := model.New(tensor.NewRNG(1), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		base.SetFrozenBase(true)
		blocks := model.ShallowCloneBlocks(base.Blocks[model.DefaultCut:])
		lora := adapter.DefaultLoRA()
		lora.Rank = 8
		if _, err := adapter.InjectLoRA(tensor.NewRNG(2), blocks, lora); err != nil {
			t.Fatal(err)
		}
		body := model.Body(blocks)
		rng := tensor.NewRNG(3)
		x := tensor.NewNormal(rng, 1, c.batch*c.seq, c.cfg.Dim)
		dy := tensor.NewNormal(rng, 1, c.batch*c.seq, c.cfg.Dim)

		before := tensor.HandOffs()
		_, cache, err := body.Forward(x, c.batch, c.seq, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := body.Backward(cache, dy); err != nil {
			t.Fatal(err)
		}
		if n := tensor.HandOffs() - before; n != 0 {
			t.Errorf("%s: the LoRA body handed %d chunks to the pool, want 0", c.workload, n)
		}
	}
}

// TestTrainingBitIdenticalAcrossParallelism is the determinism pin for
// the compute plane: training the same model on the same data must
// produce byte-identical losses and weights whether the kernels run on
// one worker or eight. Partitioning work by output row is what makes
// this hold; any kernel change that reorders a reduction breaks this
// test. Batch 4 x seq 128 is past the fan-out rule for the matmuls and
// the attention units, so the eight-worker run does reach the pool.
func TestTrainingBitIdenticalAcrossParallelism(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	const steps, batch, seq = 3, 4, 128
	run := func(par int) (*model.Transformer, []float64) {
		tensor.SetParallelism(par)
		before := tensor.HandOffs()
		m, losses, err := trainOPTTiny(42, 11, batch, seq, steps)
		if err != nil {
			t.Fatal(err)
		}
		if par > 1 && tensor.HandOffs() == before {
			t.Fatalf("training at parallelism %d handed nothing to the pool", par)
		}
		return m, losses
	}

	m1, loss1 := run(1)
	m8, loss8 := run(8)

	for i := range loss1 {
		if math.Float64bits(loss1[i]) != math.Float64bits(loss8[i]) {
			t.Fatalf("step %d loss differs: %v (serial) vs %v (parallel)", i, loss1[i], loss8[i])
		}
	}
	p1, p8 := m1.Params(), m8.Params()
	if len(p1) != len(p8) {
		t.Fatalf("param count differs: %d vs %d", len(p1), len(p8))
	}
	for i := range p1 {
		d1, d8 := p1[i].Value.Data(), p8[i].Value.Data()
		for j := range d1 {
			if math.Float32bits(d1[j]) != math.Float32bits(d8[j]) {
				t.Fatalf("param %q element %d differs after %d steps: %g vs %g",
					p1[i].Name, j, steps, d1[j], d8[j])
			}
		}
	}
}

// TestConcurrentTrainingStepsShareThePool hammers the shared worker
// pool from several goroutines, each training its own model at a shape
// past the fan-out rule. Run under -race (make test-race) this is the
// concurrency pin for the pool and the per-model scratch arenas.
func TestConcurrentTrainingStepsShareThePool(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)
	tensor.SetParallelism(4)

	const workers = 4
	before := tensor.HandOffs()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if _, _, err := trainOPTTiny(seed, seed+100, 4, 128, 2); err != nil {
				errs <- err
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tensor.HandOffs() == before {
		t.Fatal("no training step handed anything to the pool")
	}
}
