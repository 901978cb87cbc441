package memmodel

import (
	"testing"
	"testing/quick"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/tensor"
)

// Property: every memory term is positive and monotone in batch size,
// sequence length, and server depth.
func TestMemoryMonotonicityProperty(t *testing.T) {
	f := func(batchRaw, seqRaw, cutRaw uint8) bool {
		w := PaperLlamaWorkload()
		w.Batch = 1 + int(batchRaw%8)
		w.Seq = 16 + int(seqRaw)
		w.Cut = 1 + int(cutRaw%(uint8(w.Model.Layers)-1))
		if err := w.Validate(); err != nil {
			return false
		}
		if w.ActivationBytes() <= 0 || w.ServerBaseBytes() <= 0 ||
			w.AdapterBytes() <= 0 || w.NoGradForwardBytes() <= 0 {
			return false
		}
		// Monotone in batch.
		bigger := w
		bigger.Batch++
		if bigger.ActivationBytes() <= w.ActivationBytes() {
			return false
		}
		// Monotone in seq.
		longer := w
		longer.Seq++
		if longer.ActivationBytes() <= w.ActivationBytes() {
			return false
		}
		// Deeper cut means fewer server blocks: base and activations
		// shrink.
		if w.Cut+1 < w.Model.Layers {
			deeper := w
			deeper.Cut++
			if deeper.ServerBaseBytes() >= w.ServerBaseBytes() {
				return false
			}
			if deeper.ActivationBytes() >= w.ActivationBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Menos persistent memory is monotone in client count and
// always below vanilla for n ≥ 2; savings increase with n.
func TestSharingAlwaysWinsProperty(t *testing.T) {
	f := func(nRaw uint8, llama bool) bool {
		n := 2 + int(nRaw%15)
		w := PaperOPTWorkload()
		if llama {
			w = PaperLlamaWorkload()
		}
		menos := MenosPersistentBytes(w, n)
		vanilla := VanillaPersistentBytes(w, n)
		if menos >= vanilla {
			return false
		}
		if MenosPersistentBytes(w, n+1) <= menos {
			return false
		}
		savingN := 1 - float64(menos)/float64(vanilla)
		savingNext := 1 - float64(MenosPersistentBytes(w, n+1))/float64(VanillaPersistentBytes(w, n+1))
		return savingNext > savingN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the backward peak always dominates both the plain
// activation set and the no-grad forward footprint.
func TestBackwardPeakDominatesProperty(t *testing.T) {
	f := func(batchRaw, seqRaw uint8) bool {
		w := PaperLlamaWorkload()
		w.Batch = 1 + int(batchRaw%8)
		w.Seq = 16 + int(seqRaw%200)
		return w.BackwardPeakBytes() > w.ActivationBytes() &&
			w.BackwardPeakBytes() > w.NoGradForwardBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// serverBody builds w's server body over a fresh tiny model, with w's
// adapter injected over a frozen base, and an input for it.
func serverBody(t *testing.T, w Workload) (*model.BodySection, *tensor.Tensor) {
	t.Helper()
	m, err := model.New(tensor.NewRNG(1), w.Model)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFrozenBase(true)
	_, body, _, err := m.Split(w.Cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Adapter.Inject(tensor.NewRNG(2), body.Blocks(), w.Model.Dim); err != nil {
		t.Fatal(err)
	}
	return body, tensor.NewNormal(tensor.NewRNG(3), 0.5, w.Batch*w.Seq, w.Model.Dim)
}

// noGradHighWater runs a no-grad forward of x through body and returns
// the most bytes the forward held in the scratch arena at once.
func noGradHighWater(t *testing.T, body *model.BodySection, x *tensor.Tensor, batch, seq int) int64 {
	t.Helper()
	sc := body.Blocks()[0].Scratch()
	held, _ := sc.Outstanding()
	sc.ResetPeak()
	y, _, err := body.Forward(x, batch, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	_, peak := sc.Outstanding()
	sc.Put(y)
	return peak - held
}

// Property: the priced demands bound what a server body really holds.
// This is the §3.3 profile's claim, checked instead of measured per
// session. Over random geometry up to the tiny models' (4, MaxSeq), both
// families, LoRA (two target sets) and prefix (random length), at pool
// parallelism 1 and 4:
//   - the profile's M_b, the kept cache plus three rows·d gradient
//     buffers, is BackwardPeakBytes exactly, so pricing admits exactly
//     the sessions profiling did;
//   - a no-grad forward's high-water in the scratch arena is at most
//     NoGradForwardBytes. At seq 128 and batch ≥ 3 the head loop fans
//     out over the pool, which the price covers.
//
// quick.Check seeds from the clock, so `make test-stress` repeating it
// samples new geometry each run.
func TestPricedDemandsBoundTheBodyProperty(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	loraQKVO := adapter.LoRAConfig{Rank: 4, Alpha: 8,
		Targets: []adapter.Target{adapter.TargetQ, adapter.TargetK, adapter.TargetV, adapter.TargetO}}
	f := func(batchRaw, seqRaw, kindRaw uint8, llama, par4 bool) bool {
		cfg := model.OPTTiny()
		if llama {
			cfg = model.LlamaTiny()
		}
		spec := adapter.LoRASpec(adapter.DefaultLoRA())
		switch kindRaw % 3 {
		case 1:
			spec = adapter.LoRASpec(loraQKVO)
		case 2:
			spec = adapter.PrefixSpec(adapter.PrefixConfig{PrefixLen: 1 + int(kindRaw/3)%8})
		}
		w := Workload{Model: cfg, Cut: 1, Adapter: spec,
			Batch: 1 + int(batchRaw%4), Seq: 1 + int(seqRaw)%cfg.MaxSeq}
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		tensor.SetParallelism(1)
		if par4 {
			tensor.SetParallelism(4)
		}
		body, x := serverBody(t, w)

		_, cache, err := body.Forward(x, w.Batch, w.Seq, true)
		if err != nil {
			t.Fatal(err)
		}
		rows := int64(w.Batch * w.Seq)
		if got, want := cache.Bytes()+3*rows*int64(cfg.Dim)*4, w.BackwardPeakBytes(); got != want {
			t.Logf("%s %+v batch %d seq %d: profiled M_b %d, priced %d",
				cfg.Name, spec, w.Batch, w.Seq, got, want)
			return false
		}
		if hw, price := noGradHighWater(t, body, x, w.Batch, w.Seq), w.NoGradForwardBytes(); hw > price {
			t.Logf("%s %+v batch %d seq %d: no-grad high-water %d above M_f %d",
				cfg.Name, spec, w.Batch, w.Seq, hw, price)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNoGradForwardPriceIsAttained: where the FFN sublayer holds the
// most, M_f is the measured high-water to the byte, so the price is not
// merely an upper bound (39,424, 43,232 and 197,632 bytes).
func TestNoGradForwardPriceIsAttained(t *testing.T) {
	for _, w := range []Workload{TinyOPTWorkload(2, 7), TinyLlamaWorkload(2, 7), TinyLlamaWorkload(2, 32)} {
		body, x := serverBody(t, w)
		if hw, price := noGradHighWater(t, body, x, w.Batch, w.Seq), w.NoGradForwardBytes(); hw != price {
			t.Errorf("%s %d×%d: no-grad high-water %d, M_f %d", w.Model.Name, w.Batch, w.Seq, hw, price)
		}
	}
}
