package core

import (
	"path/filepath"
	"testing"

	"menos/internal/adapter"
	"menos/internal/checkpoint"
	"menos/internal/client"
	"menos/internal/model"
	"menos/internal/quant"
	"menos/internal/tensor"
)

func TestDeploymentLifecycle(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Addr() != "" {
		t.Fatal("address before listen")
	}
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" || dep.Addr() != addr {
		t.Fatalf("addr = %q / %q", addr, dep.Addr())
	}

	c, err := client.Dial(dep.Addr(), client.Config{
		ClientID:    "life",
		Model:       model.OPTTiny(),
		WeightSeed:  5,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 1,
		Batch:       1,
		Seq:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(2)
	ids := make([]int, 8)
	targets := make([]int, 8)
	for i := range ids {
		ids[i] = r.Intn(model.OPTTiny().Vocab)
		targets[i] = r.Intn(model.OPTTiny().Vocab)
	}
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()

	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatalf("Wait after clean close: %v", err)
	}
}

func TestDeploymentDefaults(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Model: model.LlamaTiny()})
	if err != nil {
		t.Fatal(err)
	}
	// Default weight seed is non-zero, default GPU is a V100.
	if dep.Server.Device().Capacity() != 32<<30 {
		t.Fatalf("default GPU capacity %d", dep.Server.Device().Capacity())
	}
	if dep.Store.Config().Name != "llama-tiny" {
		t.Fatal("store config")
	}
}

func TestDeploymentInvalidModel(t *testing.T) {
	bad := model.OPTTiny()
	bad.Heads = 7 // not a divisor of dim
	if _, err := NewDeployment(DeploymentConfig{Model: bad}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestDialBeforeListen(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny()})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing to dial until Listen binds an address.
	if addr := dep.Addr(); addr != "" {
		t.Fatalf("Addr before Listen = %q, want empty", addr)
	}
}

func TestListenBadAddress(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Listen("256.256.256.256:99999"); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestQuantizedDeployment: a server hosting an int8 base still serves
// split fine-tuning clients (QLoRA-style), and learning happens.
func TestQuantizedDeployment(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{
		Model:      model.OPTTiny(),
		WeightSeed: 5,
		BaseQuant:  quant.Int8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(dep.Addr(), client.Config{
		ClientID:    "q",
		Model:       model.OPTTiny(),
		WeightSeed:  5,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 2,
		LR:          8e-3,
		Batch:       2,
		Seq:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := tensor.NewRNG(3)
	ids := make([]int, 16)
	targets := make([]int, 16)
	for i := range ids {
		ids[i] = r.Intn(model.OPTTiny().Vocab)
		targets[i] = r.Intn(model.OPTTiny().Vocab)
	}
	first, err := c.Step(ids, targets)
	if err != nil {
		t.Fatal(err)
	}
	var last client.StepResult
	for i := 0; i < 15; i++ {
		last, err = c.Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Loss >= first.Loss {
		t.Fatalf("quantized deployment did not learn: %v -> %v", first.Loss, last.Loss)
	}
}

// TestWeightsFileDeployment: the seedless distribution workflow — the
// owner exports weights, the server and a client both load the file,
// and split fine-tuning works (sections line up).
func TestWeightsFileDeployment(t *testing.T) {
	owner, err := model.New(tensor.NewRNG(777), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.mcpk")
	if err := checkpoint.SaveModelFile(path, owner); err != nil {
		t.Fatal(err)
	}

	dep, err := NewDeployment(DeploymentConfig{
		Model:       model.OPTTiny(),
		WeightSeed:  1, // irrelevant: overridden by the file
		WeightsFile: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(dep.Addr(), client.Config{
		ClientID:    "w",
		Model:       model.OPTTiny(),
		WeightSeed:  2, // also irrelevant
		WeightsFile: path,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 3,
		LR:          8e-3,
		Batch:       2,
		Seq:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := tensor.NewRNG(4)
	ids := make([]int, 16)
	targets := make([]int, 16)
	for i := range ids {
		ids[i] = r.Intn(model.OPTTiny().Vocab)
		targets[i] = r.Intn(model.OPTTiny().Vocab)
	}
	first, err := c.Step(ids, targets)
	if err != nil {
		t.Fatal(err)
	}
	var last client.StepResult
	for i := 0; i < 10; i++ {
		last, err = c.Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Loss >= first.Loss {
		t.Fatalf("weights-file deployment did not learn: %v -> %v", first.Loss, last.Loss)
	}

	// A missing file fails cleanly.
	if _, err := NewDeployment(DeploymentConfig{
		Model:       model.OPTTiny(),
		WeightsFile: filepath.Join(t.TempDir(), "missing"),
	}); err == nil {
		t.Fatal("missing weights file accepted")
	}
}
