// Quickstart: start a Menos server in-process, connect one split
// fine-tuning client, and fine-tune a tiny OPT-style model on the
// embedded Shakespeare corpus with LoRA.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"menos"
	"menos/internal/data"
	"menos/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const weightSeed = 42

	// The model owner's side: load the base model once and serve it.
	dep, err := menos.NewDeployment(menos.DeploymentConfig{
		Model:      menos.OPTTiny(),
		WeightSeed: weightSeed,
	})
	if err != nil {
		return err
	}
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer dep.Close()
	fmt.Println("server listening on", addr)

	// The data owner's side: private text, tokenized locally.
	tok, err := data.NewCharTokenizer(data.Shakespeare(), menos.OPTTiny().Vocab)
	if err != nil {
		return err
	}
	tokens, err := tok.Encode(data.Shakespeare())
	if err != nil {
		return err
	}
	const batch, seq = 4, 32
	loader, err := data.NewLoader(tokens, batch, seq, 7)
	if err != nil {
		return err
	}

	c, err := menos.Dial(addr, menos.ClientConfig{
		ClientID:    "alice",
		Model:       menos.OPTTiny(),
		WeightSeed:  weightSeed,
		Adapter:     menos.DefaultLoRA(),
		AdapterSeed: 1,
		LR:          8e-3,
		Batch:       batch,
		Seq:         seq,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fwd, bwd := c.Demands()
	fmt.Printf("admitted: server priced forward=%d bytes, backward=%d bytes\n\n", fwd, bwd)

	for step := 0; step < 40; step++ {
		ids, targets := loader.Next()
		res, err := c.Step(ids, targets)
		if err != nil {
			return err
		}
		if step%5 == 0 || step == 39 {
			fmt.Printf("step %2d  loss %.4f  perplexity %7.2f\n", step, res.Loss, res.Perplexity)
		}
	}
	fmt.Println("\nfine-tuning complete; base model parameters were never modified:")
	if err := dep.Store.VerifyIntegrity(); err != nil {
		return err
	}
	fmt.Println("  store integrity check passed")

	// Generate a sample through the split deployment: the input and
	// output sections run here, the body runs on the server.
	prompt, err := tok.Encode("First Citizen:\n")
	if err != nil {
		return err
	}
	out, err := c.Generate(tensor.NewRNG(3), prompt, 80, 0.8)
	if err != nil {
		return err
	}
	// The model's vocab (96) pads beyond the corpus alphabet; map any
	// sampled padding id to a space before decoding.
	for i, id := range out {
		if id >= tok.VocabSize() {
			out[i] = 0
		}
	}
	text, err := tok.Decode(out)
	if err != nil {
		return err
	}
	fmt.Printf("\nsample (split inference, one server round-trip per token):\n%s\n", text)
	return nil
}
