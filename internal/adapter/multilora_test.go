package adapter

import (
	"fmt"
	"testing"

	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

// multiFixture is K clients' serial bodies plus the shared master.
type multiFixture struct {
	master  *model.Transformer
	targets []Target
	adapter []*LoRAAdapter
	body    []*model.BodySection
	batch   []int
	seq     int
	dim     int
}

// mixedLoRA gives member k its own rank and α/r scale, so one stack
// carries residuals of different shapes.
func mixedLoRA(k int) (rank int, alpha float64) {
	return []int{2, 5, 3}[k%3], []float64{4, 3, 16}[k%3]
}

// newMultiFixture builds K clients with the same rank-2 adapter shape,
// or (mixed) with per-member ranks and scales and trained-looking B
// factors: a fresh adapter's B is zero, which zeroes dA and the
// low-rank dx and would leave the backward's A path unexercised.
func newMultiFixture(t *testing.T, batches []int, mixed bool) *multiFixture {
	t.Helper()
	f := &multiFixture{
		master:  tinyModel(t, model.FamilyOPT),
		targets: []Target{TargetQ, TargetV},
		batch:   batches,
		seq:     4,
	}
	f.dim = f.master.Cfg.Dim
	f.master.SetFrozenBase(true)
	for k := range batches {
		cfg := LoRAConfig{Rank: 2, Alpha: 4, Targets: f.targets}
		if mixed {
			cfg.Rank, cfg.Alpha = mixedLoRA(k)
		}
		blocks := model.ShallowCloneBlocks(f.master.Blocks)
		ad, err := InjectLoRA(tensor.NewRNG(uint64(100+k)), blocks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if mixed {
			rng := tensor.NewRNG(uint64(400 + k))
			for _, l := range ad.Layers() {
				copy(l.B.Value.Data(), tensor.NewNormal(rng, 0.05, l.B.Value.Dim(0), l.B.Value.Dim(1)).Data())
			}
		}
		f.adapter = append(f.adapter, ad)
		f.body = append(f.body, model.Body(blocks))
	}
	return f
}

// layersOf collects the fixture's member layer lists for injection.
func (f *multiFixture) layersOf() [][]*LoRALinear {
	out := make([][]*LoRALinear, len(f.adapter))
	for k, ad := range f.adapter {
		out[k] = ad.Layers()
	}
	return out
}

// inputs builds each client's input and upstream gradient.
func (f *multiFixture) inputs() (xs, dys []*tensor.Tensor) {
	for k, b := range f.batch {
		rows := b * f.seq
		xs = append(xs, tensor.NewNormal(tensor.NewRNG(uint64(200+k)), 1, rows, f.dim))
		dys = append(dys, tensor.NewNormal(tensor.NewRNG(uint64(300+k)), 1, rows, f.dim))
	}
	return xs, dys
}

// stackRows concatenates tensors row-wise.
func stackRows(t *testing.T, parts []*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out, err := tensor.StackRows(parts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bitEqual(a, b *tensor.Tensor) bool {
	da, db := a.Data(), b.Data()
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

// TestMultiLoRABitIdenticalToSerial is the determinism pin at the
// model-section level: one batched forward/backward over K clients'
// stacked microbatches must produce bit-identical outputs, input
// gradients, adapter gradients, and (after one optimizer step)
// adapter weights compared to K serial passes — at serial and at
// full pool parallelism. Client losses are a pure function of the
// body output and the client-held head, so output bit-equality is
// loss bit-equality.
func TestMultiLoRABitIdenticalToSerial(t *testing.T) {
	for _, tc := range []struct {
		workers int
		mixed   bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		workers, mixed := tc.workers, tc.mixed
		t.Run(fmt.Sprintf("parallelism=%d/mixed=%v", workers, mixed), func(t *testing.T) {
			prev := tensor.Parallelism()
			tensor.SetParallelism(workers)
			defer tensor.SetParallelism(prev)

			f := newMultiFixture(t, []int{1, 2, 1}, mixed)
			xs, dys := f.inputs()

			// Serial reference: each client alone through its own body.
			var serialY, serialDX []*tensor.Tensor
			var serialGrads, serialWeights [][]*tensor.Tensor
			for k, body := range f.body {
				y, cache, err := body.Forward(xs[k], f.batch[k], f.seq, true)
				if err != nil {
					t.Fatal(err)
				}
				dx, err := body.Backward(cache, dys[k])
				if err != nil {
					t.Fatal(err)
				}
				serialY = append(serialY, y.Clone())
				serialDX = append(serialDX, dx.Clone())
				params := f.adapter[k].Params()
				var grads []*tensor.Tensor
				for _, p := range params {
					grads = append(grads, p.Grad.Clone())
				}
				serialGrads = append(serialGrads, grads)
				opt := nn.NewAdam(1e-2)
				if err := opt.Step(params); err != nil {
					t.Fatal(err)
				}
				var weights []*tensor.Tensor
				for _, p := range params {
					weights = append(weights, p.Value.Clone())
				}
				serialWeights = append(serialWeights, weights)
			}

			// Rewind: fresh fixture with identical seeds, then one
			// batched pass over the stacked rows.
			f = newMultiFixture(t, []int{1, 2, 1}, mixed)
			xs, dys = f.inputs()
			rows := make([]int, len(f.batch))
			totalBatch := 0
			for k, b := range f.batch {
				rows[k] = b * f.seq
				totalBatch += b
			}
			blocks := model.ShallowCloneBlocks(f.master.Blocks)
			if _, err := InjectMultiLoRA(blocks, f.targets, f.layersOf(), rows); err != nil {
				t.Fatal(err)
			}
			mbody := model.Body(blocks)
			y, cache, err := mbody.Forward(stackRows(t, xs), totalBatch, f.seq, true)
			if err != nil {
				t.Fatal(err)
			}
			dx, err := mbody.Backward(cache, stackRows(t, dys))
			if err != nil {
				t.Fatal(err)
			}

			lo := 0
			for k := range f.body {
				hi := lo + rows[k]
				ySeg, err := y.Slice2D(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(ySeg, serialY[k]) {
					t.Errorf("client %d: batched output differs from serial", k)
				}
				dxSeg, err := dx.Slice2D(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(dxSeg, serialDX[k]) {
					t.Errorf("client %d: batched input gradient differs from serial", k)
				}
				params := f.adapter[k].Params()
				for i, p := range params {
					if !bitEqual(p.Grad, serialGrads[k][i]) {
						t.Errorf("client %d param %d: batched adapter gradient differs from serial", k, i)
					}
				}
				opt := nn.NewAdam(1e-2)
				if err := opt.Step(params); err != nil {
					t.Fatal(err)
				}
				for i, p := range params {
					if !bitEqual(p.Value, serialWeights[k][i]) {
						t.Errorf("client %d param %d: adapter weights diverge after optimizer step", k, i)
					}
				}
				lo = hi
			}
		})
	}
}

// TestMultiLoRASingleSegmentMatchesLoRALinear: with one segment the
// batched op degenerates to the serial LoRALinear, bit for bit; and
// with several segments of different ranks and scales in one stack,
// every segment's dA, dB and dx rows equal what that segment's
// LoRALinear computes alone. B is non-zero throughout, so dA and the
// low-rank dx are not trivially zero.
func TestMultiLoRASingleSegmentMatchesLoRALinear(t *testing.T) {
	base := nn.NewLinear(tensor.NewRNG(11), 6, 5, true)
	base.Frozen = true
	for _, rows := range [][]int{{7}, {3, 1, 4}} {
		t.Run(fmt.Sprintf("segments=%d", len(rows)), func(t *testing.T) {
			var segs []Segment
			var xs, dys, ySerial, dxSerial, gradA, gradB []*tensor.Tensor
			for k, n := range rows {
				rank, alpha := 3, 6.0
				if len(rows) > 1 {
					rank, alpha = mixedLoRA(k)
				}
				serial := NewLoRALinear(tensor.NewRNG(uint64(12+k)), base, 6, 5, rank, alpha)
				copy(serial.B.Value.Data(), tensor.NewNormal(tensor.NewRNG(uint64(20+k)), 0.05, rank, 5).Data())
				x := tensor.NewNormal(tensor.NewRNG(uint64(13+10*k)), 1, n, 6)
				dy := tensor.NewNormal(tensor.NewRNG(uint64(14+10*k)), 1, n, 5)

				y, cache, err := serial.Apply(x, true)
				if err != nil {
					t.Fatal(err)
				}
				dx, err := serial.Grad(cache, dy, true)
				if err != nil {
					t.Fatal(err)
				}
				xs, dys = append(xs, x), append(dys, dy)
				ySerial, dxSerial = append(ySerial, y), append(dxSerial, dx)
				gradA, gradB = append(gradA, serial.A.Grad.Clone()), append(gradB, serial.B.Grad.Clone())
				serial.A.Grad.Zero()
				serial.B.Grad.Zero()
				segs = append(segs, Segment{Rows: n, Layer: serial})
			}

			ml, err := NewMultiLoRALinear(base, 6, 5, segs)
			if err != nil {
				t.Fatal(err)
			}
			yBatch, cBatch, err := ml.Apply(stackRows(t, xs), true)
			if err != nil {
				t.Fatal(err)
			}
			dxBatch, err := ml.Grad(cBatch, stackRows(t, dys), true)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(yBatch, stackRows(t, ySerial)) {
				t.Error("output differs")
			}
			if !bitEqual(dxBatch, stackRows(t, dxSerial)) {
				t.Error("input gradient differs")
			}
			for k, seg := range segs {
				if !bitEqual(seg.Layer.A.Grad, gradA[k]) || !bitEqual(seg.Layer.B.Grad, gradB[k]) {
					t.Errorf("segment %d: adapter gradients differ", k)
				}
				if allZero(gradA[k]) || allZero(gradB[k]) {
					t.Errorf("segment %d: a zero gradient pins nothing", k)
				}
			}
		})
	}
}

func allZero(t *tensor.Tensor) bool {
	for _, v := range t.Data() {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestInjectMultiLoRAValidation covers the structural error paths.
func TestInjectMultiLoRAValidation(t *testing.T) {
	m := tinyModel(t, model.FamilyOPT)
	cfg := LoRAConfig{Rank: 2, Alpha: 4, Targets: []Target{TargetQ, TargetV}}
	blocks := model.ShallowCloneBlocks(m.Blocks)
	ad, err := InjectLoRA(tensor.NewRNG(1), blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	member := [][]*LoRALinear{ad.Layers()}

	if _, err := InjectMultiLoRA(model.ShallowCloneBlocks(m.Blocks), nil, member, []int{4}); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := InjectMultiLoRA(model.ShallowCloneBlocks(m.Blocks), cfg.Targets, nil, nil); err == nil {
		t.Error("no members accepted")
	}
	if _, err := InjectMultiLoRA(model.ShallowCloneBlocks(m.Blocks), cfg.Targets, member, []int{4, 8}); err == nil {
		t.Error("mismatched rows accepted")
	}
	if _, err := InjectMultiLoRA(model.ShallowCloneBlocks(m.Blocks), cfg.Targets, member, []int{0}); err == nil {
		t.Error("zero rows accepted")
	}
	short := [][]*LoRALinear{ad.Layers()[:1]}
	if _, err := InjectMultiLoRA(model.ShallowCloneBlocks(m.Blocks), cfg.Targets, short, []int{4}); err == nil {
		t.Error("short member layer list accepted")
	}
	// Injecting over already-adapted slots must fail.
	if _, err := InjectMultiLoRA(blocks, cfg.Targets, member, []int{4}); err == nil {
		t.Error("injection over adapted slots accepted")
	}

	// A valid injection wraps every targeted slot of its clone and
	// leaves the shared master's slots alone.
	layers, err := InjectMultiLoRA(model.ShallowCloneBlocks(m.Blocks), cfg.Targets, member, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(m.Blocks)*len(cfg.Targets) {
		t.Fatalf("injected %d layers, want %d", len(layers), len(m.Blocks)*len(cfg.Targets))
	}
	for i, b := range m.Blocks {
		if _, ok := b.Attn.Q.(*MultiLoRALinear); ok {
			t.Fatalf("block %d: injecting into a clone wrapped the master's slot", i)
		}
	}
}
