package quant

import (
	"math"
	"testing"
	"testing/quick"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

func TestPrecisionProperties(t *testing.T) {
	if Int8.BytesPerParam() != 1 || Int4.BytesPerParam() != 0.5 {
		t.Fatal("bytes per param")
	}
	if Int8.String() != "int8" || Int4.String() != "int4" {
		t.Fatal("strings")
	}
	if Precision(0).String() == "" || Precision(0).BytesPerParam() != 4 {
		t.Fatal("unknown precision")
	}
}

func TestQuantizeRoundTripError(t *testing.T) {
	rng := tensor.NewRNG(1)
	w := tensor.NewNormal(rng, 0.1, 32, 16)
	for _, prec := range []Precision{Int8, Int4} {
		m, err := QuantizeMatrix(w, prec)
		if err != nil {
			t.Fatal(err)
		}
		var maxErr float64
		for i, v := range m.Dequantize().Data() {
			maxErr = math.Max(maxErr, math.Abs(float64(v-w.Data()[i])))
		}
		// Error bounded by half a quantization step per column:
		// step = maxAbs/level, so relative error <= 1/(2*level).
		level := 127.0
		if prec == Int4 {
			level = 7
		}
		bound := float64(w.MaxAbs()) / level // loose global bound
		if maxErr > bound {
			t.Fatalf("%v: max error %v > bound %v", prec, maxErr, bound)
		}
		// Shape and storage accounting.
		if m.Rows() != 32 || m.Cols() != 16 || m.prec != prec {
			t.Fatal("shape metadata")
		}
		wantData := int64(32 * 16)
		if prec == Int4 {
			wantData = 32 * 16 / 2
		}
		if got := m.StorageBytes(); got != wantData+16*4 {
			t.Fatalf("%v: storage %d, want %d", prec, got, wantData+16*4)
		}
	}
}

func TestQuantizeRejectsBadInput(t *testing.T) {
	if _, err := QuantizeMatrix(tensor.New(4), Int8); err == nil {
		t.Fatal("rank-1 accepted")
	}
	if _, err := QuantizeMatrix(tensor.New(2, 2), Precision(9)); err == nil {
		t.Fatal("bad precision accepted")
	}
}

func TestZeroColumnDoesNotDivideByZero(t *testing.T) {
	w := tensor.New(4, 2)
	w.Set(1.5, 0, 0) // column 1 stays all-zero
	m, err := QuantizeMatrix(w, Int8)
	if err != nil {
		t.Fatal(err)
	}
	deq := m.Dequantize()
	for r := 0; r < 4; r++ {
		if v := deq.At(r, 1); v != 0 || math.IsNaN(float64(v)) {
			t.Fatalf("zero column dequantized to %v", v)
		}
	}
}

// Property: dequantize(quantize(x)) stays within one quantization step
// of x for every element, any shape, both precisions.
func TestQuantizeErrorBoundProperty(t *testing.T) {
	f := func(seed uint64, precPick bool) bool {
		rng := tensor.NewRNG(seed)
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		w := tensor.New(rows, cols)
		w.FillUniform(rng, -3, 3)
		prec := Int8
		level := 127.0
		if precPick {
			prec = Int4
			level = 7
		}
		m, err := QuantizeMatrix(w, prec)
		if err != nil {
			return false
		}
		for c := 0; c < cols; c++ {
			var maxAbs float64
			for r := 0; r < rows; r++ {
				if v := math.Abs(float64(w.At(r, c))); v > maxAbs {
					maxAbs = v
				}
			}
			step := maxAbs / level
			for r := 0; r < rows; r++ {
				if math.Abs(float64(m.at(r, c)-w.At(r, c))) > step*0.5001+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizedLinearMatchesFP32(t *testing.T) {
	rng := tensor.NewRNG(2)
	lin := nn.NewLinear(rng, 8, 6, true)
	ql, err := QuantizeLinear(lin, Int8)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewNormal(rng, 0.5, 4, 8)
	yFP, _, err := lin.Apply(x, false)
	if err != nil {
		t.Fatal(err)
	}
	yQ, _, err := ql.Apply(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range yFP.Data() {
		diff := math.Abs(float64(yFP.Data()[i] - yQ.Data()[i]))
		if diff > 0.05 {
			t.Fatalf("int8 forward deviates at %d: %v vs %v", i, yFP.Data()[i], yQ.Data()[i])
		}
	}
	if ql.In() != 8 || ql.Out() != 6 {
		t.Fatal("dims")
	}
	// 4x smaller than fp32 weights (plus scales and bias).
	if ql.StorageBytes() >= lin.BaseParamBytes() {
		t.Fatalf("quantized %d not smaller than fp32 %d", ql.StorageBytes(), lin.BaseParamBytes())
	}
}

func TestQuantizedLinearBackward(t *testing.T) {
	rng := tensor.NewRNG(3)
	lin := nn.NewLinear(rng, 5, 5, false)
	ql, err := QuantizeLinear(lin, Int8)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewNormal(rng, 0.5, 3, 5)
	y, cache, err := ql.Apply(x, true)
	if err != nil {
		t.Fatal(err)
	}
	dy := tensor.New(y.Dim(0), y.Dim(1))
	dy.Fill(1)
	dx, err := ql.Grad(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	if dx.MaxAbs() == 0 {
		t.Fatal("no gradient propagated")
	}
	if len(ql.Params()) != 0 {
		t.Fatal("quantized layer has trainable params")
	}
	if _, err := ql.Grad(nil, dy); err == nil {
		t.Fatal("nil cache accepted")
	}
}

// TestQLoRAStyleFineTuning is the paper's orthogonality claim end to
// end: quantize the shared base to int8, inject fp32 LoRA adapters,
// fine-tune — loss must still fall, and only adapters may move.
func TestQLoRAStyleFineTuning(t *testing.T) {
	cfg := model.Config{
		Name: "test", Family: model.FamilyLlama,
		Vocab: 13, Dim: 8, Layers: 3, Heads: 2, FFN: 16, MaxSeq: 16,
	}
	m, err := model.New(tensor.NewRNG(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFrozenBase(true)
	if _, err := QuantizeBlocks(m.Blocks, Int8); err != nil {
		t.Fatal(err)
	}
	ad, err := adapter.InjectLoRA(tensor.NewRNG(5), m.Blocks, adapter.DefaultLoRA())
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(6)
	ids := make([]int, 12)
	targets := make([]int, 12)
	for i := range ids {
		ids[i] = r.Intn(cfg.Vocab)
		targets[i] = r.Intn(cfg.Vocab)
	}
	opt := nn.NewAdam(5e-3)
	first, err := m.LossAndGrad(ids, targets, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 40; i++ {
		res, err := m.LossAndGrad(ids, targets, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		last = res.Loss
		if err := opt.Step(ad.Params()); err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(ad.Params())
	}
	if last >= first.Loss {
		t.Fatalf("QLoRA-style fine-tuning did not reduce loss: %v -> %v", first.Loss, last)
	}
}

func TestQuantizeBlocksAccounting(t *testing.T) {
	cfg := model.Config{
		Name: "test", Family: model.FamilyOPT,
		Vocab: 13, Dim: 8, Layers: 2, Heads: 2, FFN: 16, MaxSeq: 16,
	}
	m, err := model.New(tensor.NewRNG(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bytes, err := QuantizeBlocks(m.Blocks, Int4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Fatal("no storage accounted")
	}
	// fp32 projection storage for comparison: quantized must be far
	// smaller (int4 ≈ 1/8 + scales + fp32 biases).
	fp32 := cfg.BlockParams() * int64(cfg.Layers) * 4
	if bytes*3 > fp32 {
		t.Fatalf("int4 storage %d not << fp32 %d", bytes, fp32)
	}
	// Double quantization rejected.
	if _, err := QuantizeBlocks(m.Blocks, Int4); err == nil {
		t.Fatal("double quantization accepted")
	}
}

func TestQuantizedModelStillCausal(t *testing.T) {
	cfg := model.Config{
		Name: "test", Family: model.FamilyLlama,
		Vocab: 13, Dim: 8, Layers: 2, Heads: 2, FFN: 16, MaxSeq: 16,
	}
	m, err := model.New(tensor.NewRNG(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QuantizeBlocks(m.Blocks, Int8); err != nil {
		t.Fatal(err)
	}
	input, body, _, err := m.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	ids1 := []int{1, 2, 3, 4}
	ids2 := []int{1, 2, 3, 9}
	x1, _, err := input.Forward(ids1, 1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	y1, _, err := body.Forward(x1, 1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	x2, _, err := input.Forward(ids2, 1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	y2, _, err := body.Forward(x2, 1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		for c := 0; c < cfg.Dim; c++ {
			if y1.At(p, c) != y2.At(p, c) {
				t.Fatalf("future token leaked into position %d", p)
			}
		}
	}
}
