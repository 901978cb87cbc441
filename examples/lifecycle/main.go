// Lifecycle: the full deployment story, end to end.
//
//  1. The model owner trains/initializes a base model and exports its
//     weights (the distributable artifact).
//  2. The owner starts a Menos server from those weights (the base is
//     served in fp32) — the model body never leaves the server.
//  3. A data owner builds the client sections from the same weights
//     file, fine-tunes on private text, and checkpoints the adapter.
//  4. A second session resumes from the checkpoint and generates text
//     through the split deployment.
//
// Run with:
//
//	go run ./examples/lifecycle
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"menos"
	"menos/internal/checkpoint"
	"menos/internal/data"
	"menos/internal/model"
	"menos/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "menos-lifecycle")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	weightsPath := filepath.Join(dir, "base-weights.mcpk")
	adapterPath := filepath.Join(dir, "alice-adapter.mcpk")

	// --- 1. Model owner: build and export the base model. ---
	base, err := model.New(tensor.NewRNG(2024), menos.OPTTiny())
	if err != nil {
		return err
	}
	if err := checkpoint.SaveModelFile(weightsPath, base); err != nil {
		return err
	}
	info, err := os.Stat(weightsPath)
	if err != nil {
		return err
	}
	fmt.Printf("1. exported base weights: %s (%.1f KiB)\n", filepath.Base(weightsPath),
		float64(info.Size())/1024)

	// --- 2. Serve it. ---
	dep, err := menos.NewDeployment(menos.DeploymentConfig{
		Model:       menos.OPTTiny(),
		WeightsFile: weightsPath,
	})
	if err != nil {
		return err
	}
	defer dep.Close()
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("2. serving the exported fp32 base on %s\n", addr)

	// --- 3. Data owner: fine-tune on private text; checkpoint φ_i. ---
	tok, err := data.NewCharTokenizer(data.Shakespeare(), menos.OPTTiny().Vocab)
	if err != nil {
		return err
	}
	tokens, err := tok.Encode(data.Shakespeare())
	if err != nil {
		return err
	}
	const batch, seq = 4, 32
	clientCfg := menos.ClientConfig{
		ClientID:    "alice",
		Model:       menos.OPTTiny(),
		WeightsFile: weightsPath,
		Adapter:     menos.DefaultLoRA(),
		AdapterSeed: 11,
		LR:          8e-3,
		Batch:       batch,
		Seq:         seq,
	}
	alice, err := menos.Dial(addr, clientCfg)
	if err != nil {
		return err
	}
	loader, err := data.NewLoader(tokens, batch, seq, 5)
	if err != nil {
		return err
	}
	var first, last menos.StepResult
	for step := 0; step < 30; step++ {
		ids, targets := loader.Next()
		res, err := alice.Step(ids, targets)
		if err != nil {
			return err
		}
		if step == 0 {
			first = res
		}
		last = res
	}
	f, err := os.Create(adapterPath)
	if err != nil {
		return err
	}
	if err := alice.SaveAdapter(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := alice.Close(); err != nil {
		return err
	}
	fmt.Printf("3. fine-tuned 30 steps (loss %.3f -> %.3f), adapter checkpointed\n",
		first.Loss, last.Loss)

	// --- 4. Resume in a fresh session and generate. ---
	resumeCfg := clientCfg
	resumeCfg.ClientID = "alice-resumed"
	resumed, err := menos.Dial(addr, resumeCfg)
	if err != nil {
		return err
	}
	defer resumed.Close()
	rf, err := os.Open(adapterPath)
	if err != nil {
		return err
	}
	if err := resumed.LoadAdapter(rf); err != nil {
		_ = rf.Close()
		return err
	}
	_ = rf.Close()

	prompt, err := tok.Encode("All:\n")
	if err != nil {
		return err
	}
	out, kvBytes, err := resumed.GenerateIncremental(tensor.NewRNG(8), prompt, 60, 0.8)
	if err != nil {
		return err
	}
	fmt.Printf("   (server reserved %.1f KiB of KV cache through the Menos scheduler)\n",
		float64(kvBytes)/1024)
	for i, id := range out {
		if id >= tok.VocabSize() {
			out[i] = 0
		}
	}
	text, err := tok.Decode(out)
	if err != nil {
		return err
	}
	fmt.Printf("4. resumed session sample:\n%s\n", text)

	if err := dep.Store.VerifyIntegrity(); err != nil {
		return err
	}
	fmt.Println("\nshared base never modified: integrity verified")
	return nil
}
