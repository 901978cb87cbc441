package model

import (
	"crypto/sha256"
	"encoding/binary"
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
// Recorded at ac670d8 (each matmul tile step a rounded product, then
// a rounded add), with trainSteps(t, New(NewRNG(42), OPTTiny()), 12).
// The tile's fused multiply-add, one rounding per step in every tier,
// lands within 4e-6.
func TestKernelConvergenceParity(t *testing.T) {
	recorded := []float64{
		4.8760586128402528,
		3.8008121495230753,
		3.1531376054503011,
		2.7018422475891066,
		2.2626993031342013,
		1.8565095938115299,
		1.5278846649540065,
		1.2511909932323595,
		1.026728324458547,
		0.84508127292990587,
		0.71038757558030829,
		0.60217874954641637,
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

// TestForwardLogitsArePinned pins the bits of the no-grad full forward:
// the SHA-256 of the logits of OPTTiny and LlamaTiny over a fixed
// two-sequence batch, plain and with a prefix on every block, at one
// worker and at four. A change to the attention, block or section
// forward that moves one bit of any logit fails here.
func TestForwardLogitsArePinned(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	cases := []struct {
		cfg    Config
		prefix bool
		want   string
	}{
		{OPTTiny(), false, "d1a47439de0a9384a1d867b70bb10757e75aae32cb5dd66c60e5bc2eb4fff149"},
		{OPTTiny(), true, "06d400e3a6224720b7ccb259bf63c248fbe2b687acf8cdff6b9cac248d03c5a1"},
		{LlamaTiny(), false, "c5c9b98061eee0bba8e111778f17327cf281b7ce8cbaa8f2c7c51b65eca3d65a"},
		{LlamaTiny(), true, "4cf5fb7e01b7faf8c5487a8b9068c36c480a2a41a72aac44c255ad3ffea0c137"},
	}
	const batch, seq = 2, 24
	for _, par := range []int{1, 4} {
		tensor.SetParallelism(par)
		for _, c := range cases {
			m, err := New(tensor.NewRNG(42), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.prefix {
				rng := tensor.NewRNG(43)
				for _, b := range m.Blocks {
					b.Attn.Prefix = NewPrefixKV(rng, 5, c.cfg.Dim)
				}
			}
			rng := tensor.NewRNG(44)
			ids := make([]int, batch*seq)
			for i := range ids {
				ids[i] = rng.Intn(c.cfg.Vocab)
			}
			input, body, output, err := m.Split(DefaultCut)
			if err != nil {
				t.Fatal(err)
			}
			xc, _, err := input.Forward(ids, batch, seq, false)
			if err != nil {
				t.Fatal(err)
			}
			xs, _, err := body.Forward(xc, batch, seq, false)
			if err != nil {
				t.Fatal(err)
			}
			logits, _, err := output.Forward(xs, false)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, v := range logits.Data() {
				_ = binary.Write(h, binary.LittleEndian, math.Float32bits(v))
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
				t.Errorf("%s prefix=%v at parallelism %d: logits sha256 = %s, want %s",
					c.cfg.Name, c.prefix, par, got, c.want)
			}
		}
	}
}
