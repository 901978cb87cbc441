// End-to-end tests of the public façade: everything a downstream user
// would touch, exercised through the menos package only (plus data for
// corpora).
package menos_test

import (
	"bytes"
	"strings"
	"testing"

	"menos"
	"menos/internal/costmodel"
	"menos/internal/data"
	"menos/internal/splitsim"
	"menos/internal/tensor"
)

func publicBatch(t *testing.T, cfg menos.ClientConfig, seed uint64) ([]int, []int) {
	t.Helper()
	r := tensor.NewRNG(seed)
	n := cfg.Batch * cfg.Seq
	ids := make([]int, n)
	targets := make([]int, n)
	for i := range ids {
		ids[i] = r.Intn(cfg.Model.Vocab)
		targets[i] = r.Intn(cfg.Model.Vocab)
	}
	return ids, targets
}

// TestPublicAPIEndToEnd walks the README's quick-start path: deploy,
// dial, train, checkpoint, generate, verify integrity.
func TestPublicAPIEndToEnd(t *testing.T) {
	dep, err := menos.NewDeployment(menos.DeploymentConfig{
		Model:      menos.OPTTiny(),
		WeightSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cfg := menos.ClientConfig{
		ClientID:    "api-test",
		Model:       menos.OPTTiny(),
		WeightSeed:  42,
		Adapter:     menos.DefaultLoRA(),
		AdapterSeed: 7,
		LR:          8e-3,
		Batch:       2,
		Seq:         16,
	}
	c, err := menos.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids, targets := publicBatch(t, cfg, 1)
	first, err := c.Step(ids, targets)
	if err != nil {
		t.Fatal(err)
	}
	var last menos.StepResult
	for i := 0; i < 10; i++ {
		last, err = c.Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Loss >= first.Loss {
		t.Fatalf("no learning: %v -> %v", first.Loss, last.Loss)
	}

	var ckpt bytes.Buffer
	if err := c.SaveAdapter(&ckpt); err != nil {
		t.Fatal(err)
	}
	if ckpt.Len() == 0 {
		t.Fatal("empty checkpoint")
	}

	out, err := c.Generate(tensor.NewRNG(2), []int{1, 2, 3}, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("generated %d tokens", len(out))
	}

	if err := dep.Store.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicSimulation exercises the performance plane via the façade.
func TestPublicSimulation(t *testing.T) {
	w := menos.PaperLlamaWorkload()
	if menos.MenosPersistentBytes(w, 4) >= menos.VanillaPersistentBytes(w, 4) {
		t.Fatal("sharing does not save")
	}
	fp := w.ClientFootprint()
	if fp.M <= 0 || fp.I <= 0 || fp.Total() <= fp.M {
		t.Fatalf("footprint = %+v", fp)
	}
}

// TestPublicExperimentsRender: the façade's experiment entry points
// produce renderable artifacts.
func TestPublicExperimentsRender(t *testing.T) {
	if out := menos.MeasurementStudy().Render(); !strings.Contains(out, "base model") {
		t.Fatalf("measurement study:\n%s", out)
	}
	figs := menos.Fig5()
	if len(figs) != 2 || !strings.Contains(figs[0].Render(), "menos") {
		t.Fatal("fig5 render")
	}
}

// TestPublicModelPresets: the preset catalog resolves and validates.
func TestPublicModelPresets(t *testing.T) {
	for _, name := range []string{"opt-1.3b", "llama2-7b", "opt-tiny", "llama-tiny"} {
		cfg, err := menos.ModelByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := menos.ModelByName("gpt-5"); err == nil {
		t.Fatal("unknown preset resolved")
	}
}

// TestPublicDataPath: corpora and tokenizers feed the client geometry.
func TestPublicDataPath(t *testing.T) {
	tok, err := data.NewCharTokenizer(data.Shakespeare(), menos.OPTTiny().Vocab)
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := tok.Encode(data.Shakespeare())
	if err != nil {
		t.Fatal(err)
	}
	loader, err := data.NewLoader(tokens, 2, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := loader.Next()
	if len(ids) != 32 || len(targets) != 32 {
		t.Fatal("loader geometry")
	}
}

// TestFacadeSimulationModes exercises the remaining façade surface:
// simulation with explicit modes/policies/scheduler disciplines and
// GPU presets.
func TestFacadeSimulationModes(t *testing.T) {
	w := menos.PaperOPTWorkload()
	clients := splitsimClients(3, w)
	for _, cfg := range []menos.SimConfig{
		{Mode: menos.SimVanilla, Clients: clients, Iterations: 3},
		{Mode: menos.SimMenos, Policy: menos.PolicyReleaseOnWait, Clients: clients, Iterations: 3},
		{Mode: menos.SimMenos, SchedPol: menos.SchedSmallestFirst, Clients: clients, Iterations: 3},
		{Mode: menos.SimMenos, GPUSpec: menos.A100(), Clients: clients, Iterations: 3},
	} {
		r, err := menos.Simulate(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg.Mode, err)
		}
		if r.AvgIterationTime() <= 0 {
			t.Fatal("no simulated time")
		}
	}
	if menos.RTXA4500().MemoryBytes != 20<<30 {
		t.Fatal("gpu preset")
	}
	if menos.DefaultPrefix().Kind != menos.AdapterPrefix {
		t.Fatal("prefix spec")
	}
}

func splitsimClients(n int, w menos.Workload) []splitsim.ClientSpec {
	return splitsim.HomogeneousClients(n, w, costmodel.ClientGPUPerf())
}
