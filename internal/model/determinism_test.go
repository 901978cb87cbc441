package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// trainSteps runs n Adam steps over fixed data and returns the loss of
// every step.
func trainSteps(t *testing.T, m *Transformer, n int) []float64 {
	t.Helper()
	opt := nn.NewAdam(1e-3)
	params := m.Params()
	batch, seq := 2, 16
	rng := tensor.NewRNG(11)
	ids := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	for i := range ids {
		ids[i] = rng.Intn(m.Cfg.Vocab)
		targets[i] = rng.Intn(m.Cfg.Vocab)
	}
	losses := make([]float64, 0, n)
	for step := 0; step < n; step++ {
		res, err := m.LossAndGrad(ids, targets, batch, seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(params); err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		losses = append(losses, res.Loss)
	}
	return losses
}

// TestTrainingBitIdenticalAcrossParallelism is the determinism pin for
// the compute-plane overhaul: training the same model on the same data
// must produce byte-identical losses and weights whether the kernels
// run on one worker or eight. Partitioning work by output row is what
// makes this hold; any kernel change that reorders a reduction breaks
// this test.
func TestTrainingBitIdenticalAcrossParallelism(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	const steps = 3
	run := func(par int) (*Transformer, []float64) {
		tensor.SetParallelism(par)
		m, err := New(tensor.NewRNG(42), OPTTiny())
		if err != nil {
			t.Fatal(err)
		}
		return m, trainSteps(t, m, steps)
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

// kernelParityTolerance is the one versioned tolerance in the
// repository (docs/NUMERICS.md): how far a change that deliberately
// alters kernel bits may move any of the recorded losses below.
const kernelParityTolerance = 1e-3

// TestKernelConvergenceParity is the versioned pin. Every other
// equality test compares two runs of one binary and survives a kernel
// whose bits differ from the previous commit's; this one compares
// against the previous kernels themselves: twelve OPTTiny training
// steps whose losses were recorded, as float64 literals, at the last
// commit that changed kernel bits on purpose. A change that does so
// again re-records the literals from its parent commit and must land
// within kernelParityTolerance of them at every step; it is the only
// test such a change may touch.
//
// Recorded at d5d089e (float64 math.Tanh/math.Exp under GELU and
// softmax), with trainSteps(t, New(NewRNG(42), OPTTiny()), 12). The
// float32 exp kernels that replaced them land within 1e-5.
func TestKernelConvergenceParity(t *testing.T) {
	recorded := []float64{
		4.8760586014708256,
		3.800809936260932,
		3.1531411465488643,
		2.7018436873667828,
		2.2627024048419639,
		1.8565163908366744,
		1.5278909324096832,
		1.2511961036301704,
		1.0267323275005418,
		0.84508460631365989,
		0.71039058957054768,
		0.60218168592905563,
	}
	m, err := New(tensor.NewRNG(42), OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i, got := range trainSteps(t, m, len(recorded)) {
		d := math.Abs(got - recorded[i])
		worst = math.Max(worst, d)
		if d > kernelParityTolerance || math.IsNaN(got) {
			t.Errorf("step %d: loss %.17g, recorded %.17g (off by %.3g, tolerance %g)",
				i, got, recorded[i], d, kernelParityTolerance)
		}
	}
	t.Logf("largest deviation from the recorded losses: %.3g", worst)
}

// TestConcurrentTrainingStepsShareThePool hammers the shared worker
// pool from several goroutines, each training its own model. Run under
// -race (make test-race) this is the concurrency pin for the pool and
// the per-model scratch arenas.
func TestConcurrentTrainingStepsShareThePool(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)
	tensor.SetParallelism(4)

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			m, err := New(tensor.NewRNG(seed), OPTTiny())
			if err != nil {
				errs <- err
				return
			}
			opt := nn.NewAdam(1e-3)
			params := m.Params()
			batch, seq := 2, 8
			rng := tensor.NewRNG(seed + 100)
			ids := make([]int, batch*seq)
			targets := make([]int, batch*seq)
			for i := range ids {
				ids[i] = rng.Intn(m.Cfg.Vocab)
				targets[i] = rng.Intn(m.Cfg.Vocab)
			}
			for step := 0; step < 2; step++ {
				if _, err := m.LossAndGrad(ids, targets, batch, seq); err != nil {
					errs <- err
					return
				}
				if err := opt.Step(params); err != nil {
					errs <- err
					return
				}
				nn.ZeroGrads(params)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentNoGradForwardSharesArena drives concurrent no-grad
// evaluations through one shared model — the server's base-sharing
// pattern, where shallow clones share both parameters and the scratch
// arena. Under -race this pins the arena's internal synchronization
// and the get/put ownership discipline of the no-grad path.
func TestConcurrentNoGradForwardSharesArena(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)
	tensor.SetParallelism(4)

	m, err := New(tensor.NewRNG(5), OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	batch, seq := 2, 8
	rng := tensor.NewRNG(6)
	ids := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	for i := range ids {
		ids[i] = rng.Intn(m.Cfg.Vocab)
		targets[i] = rng.Intn(m.Cfg.Vocab)
	}
	want, err := m.Loss(ids, targets, batch, seq)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := m.Loss(ids, targets, batch, seq)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					errs <- fmt.Errorf("concurrent no-grad loss %v differs from serial %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
