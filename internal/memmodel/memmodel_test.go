package memmodel

import (
	"testing"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/split"
	"menos/internal/tensor"
)

const gib = 1 << 30

func TestWorkloadValidate(t *testing.T) {
	valid := PaperLlamaWorkload()
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Workload)
	}{
		{"bad cut low", func(w *Workload) { w.Cut = 0 }},
		{"bad cut high", func(w *Workload) { w.Cut = w.Model.Layers }},
		{"bad adapter", func(w *Workload) { w.Adapter.Rank = 0 }},
		{"bad batch", func(w *Workload) { w.Batch = 0 }},
		{"bad seq", func(w *Workload) { w.Seq = 0 }},
		{"bad model", func(w *Workload) { w.Model.Dim = 0 }},
		{"seq above max seq", func(w *Workload) { w.Seq = w.Model.MaxSeq + 1 }},
		{"rank above dim", func(w *Workload) { w.Adapter.Rank = w.Model.Dim + 1 }},
		{"huge rank", func(w *Workload) { w.Adapter.Rank = 1 << 50 }},
		{"repeated target", func(w *Workload) {
			w.Adapter.Targets = []adapter.Target{adapter.TargetQ, adapter.TargetQ}
		}},
		{"prefix above max seq", func(w *Workload) {
			w.Adapter = adapter.PrefixSpec(adapter.PrefixConfig{PrefixLen: w.Model.MaxSeq + 1})
		}},
		{"retired kind", func(w *Workload) { w.Adapter = adapter.Spec{Kind: 3} }},
		{"batch 1<<40", func(w *Workload) { w.Batch = 1 << 40 }},
		{"batch 1<<60 seq 16", func(w *Workload) { w.Batch, w.Seq = 1<<60, 16 }},
		{"rows past the frame limit", func(w *Workload) { w.Batch, w.Seq = frameRows(*w)+1, 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := PaperLlamaWorkload()
			tt.mutate(&w)
			if err := w.Validate(); err == nil {
				t.Fatal("invalid workload accepted")
			}
		})
	}
	atLimit := PaperLlamaWorkload()
	atLimit.Batch, atLimit.Seq = frameRows(atLimit), 1
	if err := atLimit.Validate(); err != nil {
		t.Fatalf("rows that fill one frame refused: %v", err)
	}
}

// frameRows is the most batch·seq rows of w's model one activation
// frame can carry.
func frameRows(w Workload) int { return split.MaxFrameBytes / 4 / w.Model.Dim }

// TestMeasurementStudy reproduces §2.3: Llama 2-7B, LoRA, batch 4 —
// the paper measures ≈24 GB base, 246 MB adapter+optimizer, 4 GB
// intermediates, ≈28.7 GB total.
func TestMeasurementStudy(t *testing.T) {
	_, fp := MeasurementStudy()
	if fp.M < 22*gib || fp.M > 27*gib {
		t.Fatalf("M = %.1f GiB, want ~24 GB", float64(fp.M)/gib)
	}
	ao := fp.A + fp.O
	if ao < 30<<20 || ao > 400<<20 {
		t.Fatalf("A+O = %.0f MiB, want same order as 246 MB", float64(ao)/(1<<20))
	}
	if fp.I < 2*gib || fp.I > 6*gib {
		t.Fatalf("I = %.1f GiB, want ~4 GB", float64(fp.I)/gib)
	}
	if fp.Total() < 25*gib || fp.Total() > 33*gib {
		t.Fatalf("total = %.1f GiB, want ~28.7 GB", float64(fp.Total())/gib)
	}
	// The structural claim: M dominates, A+O is negligible.
	if ao*20 > fp.M {
		t.Fatalf("A+O (%d) not << M (%d)", ao, fp.M)
	}
}

// TestOPTBaseMatchesPaper checks the OPT-1.3B server slice against the
// paper's Fig. 5(a) single-client persistent footprint of ~4.7 GB.
func TestOPTBaseMatchesPaper(t *testing.T) {
	w := PaperOPTWorkload()
	m := w.ServerBaseBytes()
	if m < 4*gib || m > 5*gib {
		t.Fatalf("OPT server base = %.2f GiB, want ~4.6 GB", float64(m)/gib)
	}
}

// TestVanillaSupportsExactlyThreeOPTClients reproduces the paper's
// observation that a 32 GB V100 fits 3 (not 4) vanilla OPT clients.
func TestVanillaSupportsExactlyThreeOPTClients(t *testing.T) {
	w := PaperOPTWorkload()
	const v100 = 32 * int64(gib)
	if got := VanillaPeakBytes(w, 3); got > v100 {
		t.Fatalf("3 vanilla OPT clients need %.1f GiB > 32", float64(got)/gib)
	}
	if got := VanillaPeakBytes(w, 4); got <= v100 {
		t.Fatalf("4 vanilla OPT clients fit in 32 GiB (%.1f), paper says they don't", float64(got)/gib)
	}
}

// TestVanillaLlamaCannotFitTwo reproduces: one V100 cannot hold two
// full Llama 2-7B copies.
func TestVanillaLlamaCannotFitTwo(t *testing.T) {
	w := PaperLlamaWorkload()
	const v100 = 32 * int64(gib)
	if got := VanillaPeakBytes(w, 1); got > v100 {
		t.Fatalf("1 vanilla Llama client needs %.1f GiB > 32", float64(got)/gib)
	}
	if got := VanillaPersistentBytes(w, 2); got <= v100 {
		t.Fatalf("2 vanilla Llama clients fit persistently (%.1f GiB), paper says they can't",
			float64(got)/gib)
	}
}

// TestMenosFitsFourLlamaClients reproduces Fig. 5(b): Menos serves 4
// Llama clients in ~26.4 GB, a ~72% reduction vs duplication.
func TestMenosFitsFourLlamaClients(t *testing.T) {
	w := PaperLlamaWorkload()
	menos := MenosPersistentBytes(w, 4)
	vanilla := VanillaPersistentBytes(w, 4)
	if menos > 29*gib {
		t.Fatalf("Menos 4 Llama clients = %.1f GiB, want ~26.4 GB", float64(menos)/gib)
	}
	saving := 1 - float64(menos)/float64(vanilla)
	if saving < 0.65 || saving > 0.80 {
		t.Fatalf("saving = %.1f%%, paper reports 72.2%%", saving*100)
	}
}

// TestMenosOPTSaving reproduces Fig. 5(a): ~64% reduction at 4 clients.
func TestMenosOPTSaving(t *testing.T) {
	w := PaperOPTWorkload()
	menos := MenosPersistentBytes(w, 4)
	vanilla := VanillaPersistentBytes(w, 4)
	saving := 1 - float64(menos)/float64(vanilla)
	if saving < 0.55 || saving > 0.75 {
		t.Fatalf("saving = %.1f%%, paper reports 64.1%%", saving*100)
	}
}

// TestSingleClientMenosCostsMore reproduces the paper's note that with
// one client Menos uses slightly more memory than vanilla (extra
// manager process).
func TestSingleClientMenosCostsMore(t *testing.T) {
	for _, w := range []Workload{PaperOPTWorkload(), PaperLlamaWorkload()} {
		menos := MenosPersistentBytes(w, 1)
		vanilla := VanillaPersistentBytes(w, 1)
		if menos <= vanilla {
			t.Fatalf("%s: Menos single-client %.2f GiB not above vanilla %.2f GiB",
				w.Model.Name, float64(menos)/gib, float64(vanilla)/gib)
		}
		// But not by much: under 1.5 GB of process overhead.
		if menos-vanilla > 2*gib {
			t.Fatalf("%s: single-client overhead too large: %.2f GiB",
				w.Model.Name, float64(menos-vanilla)/gib)
		}
	}
}

// TestCrossoverScaling: Menos grows slowly in N, vanilla linearly; the
// ratio should improve monotonically with N.
func TestCrossoverScaling(t *testing.T) {
	w := PaperLlamaWorkload()
	prev := 0.0
	for n := 2; n <= 8; n++ {
		saving := 1 - float64(MenosPersistentBytes(w, n))/float64(VanillaPersistentBytes(w, n))
		if saving <= prev {
			t.Fatalf("saving not monotone at n=%d: %.3f <= %.3f", n, saving, prev)
		}
		prev = saving
	}
}

// TestTransferBytesMatchPaper checks the activation payload sizes the
// paper reports: 13.1 MB (OPT, batch 16) and 6.4 MB (Llama, batch 4).
func TestTransferBytesMatchPaper(t *testing.T) {
	opt := PaperOPTWorkload().TransferBytes()
	if opt < 12<<20 || opt > 14<<20 {
		t.Fatalf("OPT transfer = %.1f MiB, paper says 13.1 MB", float64(opt)/(1<<20))
	}
	llama := PaperLlamaWorkload().TransferBytes()
	if llama < 5<<20 || llama > 8<<20 {
		t.Fatalf("Llama transfer = %.1f MiB, paper says 6.4 MB", float64(llama)/(1<<20))
	}
}

// TestActivationBytesMatchesMeasuredCaches is the cross-validation at
// the heart of the reproduction strategy: the analytic 𝕀 formula must
// agree *exactly* with the bytes retained by the real implementation's
// caches, for both families and both adapter kinds (LoRA in two
// shapes).
func TestActivationBytesMatchesMeasuredCaches(t *testing.T) {
	type tc struct {
		name string
		cfg  model.Config
		spec adapter.Spec
	}
	loraQKVO := adapter.LoRASpec(adapter.LoRAConfig{Rank: 4, Alpha: 8,
		Targets: []adapter.Target{adapter.TargetQ, adapter.TargetK, adapter.TargetV, adapter.TargetO}})
	cases := []tc{
		{"opt+lora", model.OPTTiny(), adapter.LoRASpec(adapter.DefaultLoRA())},
		{"llama+lora", model.LlamaTiny(), adapter.LoRASpec(adapter.DefaultLoRA())},
		{"opt+prefix", model.OPTTiny(), adapter.PrefixSpec(adapter.PrefixConfig{PrefixLen: 4})},
		{"llama+prefix", model.LlamaTiny(), adapter.PrefixSpec(adapter.PrefixConfig{PrefixLen: 4})},
		{"opt+lora-qkvo", model.OPTTiny(), loraQKVO},
		{"llama+lora-qkvo", model.LlamaTiny(), loraQKVO},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batch, seq := 2, 7
			w := Workload{
				Model: c.cfg, Cut: 1, Adapter: c.spec,
				Batch: batch, Seq: seq,
			}
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}

			m, err := model.New(tensor.NewRNG(1), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SetFrozenBase(true)
			_, body, _, err := m.Split(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.spec.Inject(tensor.NewRNG(2), body.Blocks(), c.cfg.Dim); err != nil {
				t.Fatal(err)
			}
			x := tensor.NewNormal(tensor.NewRNG(3), 0.5, batch*seq, c.cfg.Dim)
			_, cache, err := body.Forward(x, batch, seq, true)
			if err != nil {
				t.Fatal(err)
			}
			measured := cache.Bytes()
			analytic := w.ActivationBytes()
			if measured != analytic {
				t.Fatalf("measured cache %d != analytic %d (delta %d)",
					measured, analytic, measured-analytic)
			}
		})
	}
}

// TestAdapterBytesMatchesInstantiated cross-validates 𝔸 against the
// parameters a real injected adapter exposes.
func TestAdapterBytesMatchesInstantiated(t *testing.T) {
	cfg := model.LlamaTiny()
	w := TinyLlamaWorkload(2, 8)
	m, err := model.New(tensor.NewRNG(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _, err := m.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := w.Adapter.Inject(tensor.NewRNG(5), body.Blocks(), cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, p := range ad.Params() {
		got += p.Value.Bytes()
	}
	if want := w.AdapterBytes(); got != want {
		t.Fatalf("instantiated adapter bytes %d != analytic %d", got, want)
	}
}

// TestOptimizerStateMultipliers checks the 𝕆 term, Adam's two moments
// per parameter, and the persistent state it joins: parameters,
// gradients, both moments and the client's context.
func TestOptimizerStateMultipliers(t *testing.T) {
	w := TinyOPTWorkload(1, 4)
	a := w.AdapterBytes()
	if got := w.OptimizerBytes(); got != 2*a {
		t.Fatalf("optimizer bytes %d, want 2 × %d adapter bytes", got, a)
	}
	if got, want := w.PersistentClientBytes(), 4*a+ContextOverheadBytes; got != want {
		t.Fatalf("persistent client bytes %d, want %d", got, want)
	}
}

// TestDeeperCutShrinksServerFootprint: privacy-motivated deeper cuts
// (§3.1) shift memory from server to client.
func TestDeeperCutShrinksServerFootprint(t *testing.T) {
	w := PaperLlamaWorkload()
	shallow := w
	shallow.Cut = 1
	deep := w
	deep.Cut = 8
	if deep.ServerBaseBytes() >= shallow.ServerBaseBytes() {
		t.Fatal("deeper cut did not shrink server base")
	}
	if deep.ActivationBytes() >= shallow.ActivationBytes() {
		t.Fatal("deeper cut did not shrink server activations")
	}
}

// TestNoGradForwardIsSmall: the Fig. 3(d) no-grad forward must be far
// below the full activation set — that is the whole point.
func TestNoGradForwardIsSmall(t *testing.T) {
	for _, w := range []Workload{PaperOPTWorkload(), PaperLlamaWorkload()} {
		nograd := w.NoGradForwardBytes()
		full := w.ActivationBytes()
		if nograd*5 > full {
			t.Fatalf("%s: no-grad forward %.2f GiB not << activations %.2f GiB",
				w.Model.Name, float64(nograd)/gib, float64(full)/gib)
		}
	}
}

// TestEq3BeatsEq2: the paper's headline inequality — Menos peak (Eq. 3)
// grows much slower than vanilla peak (Eq. 2).
func TestEq3BeatsEq2(t *testing.T) {
	w := PaperLlamaWorkload()
	for n := 2; n <= 6; n++ {
		if MenosPeakBytes(w, n) >= VanillaPeakBytes(w, n) {
			t.Fatalf("Menos peak >= vanilla peak at n=%d", n)
		}
	}
	// Marginal client cost: Menos adds only (A+O+ctx), vanilla adds a
	// whole model replica.
	menosMargin := MenosPeakBytes(w, 5) - MenosPeakBytes(w, 4)
	vanillaMargin := VanillaPeakBytes(w, 5) - VanillaPeakBytes(w, 4)
	if menosMargin*10 > vanillaMargin {
		t.Fatalf("Menos marginal cost %.2f GiB not << vanilla marginal %.2f GiB",
			float64(menosMargin)/gib, float64(vanillaMargin)/gib)
	}
}

// TinyOPTWorkload is a runnable workload over the tiny OPT model.
func TinyOPTWorkload(batch, seq int) Workload {
	return Workload{
		Model:   model.OPTTiny(),
		Cut:     1,
		Adapter: paperLoRASpec(),
		Batch:   batch,
		Seq:     seq,
	}
}
