// Multiclient: four concurrent clients fine-tune the same shared base
// model with *different* adapters (LoRA at two ranks, prefix-tuning)
// and cut layers — the
// heterogeneity §3.1 is designed for — while the server pays for one
// base copy. The example prints the memory accounting that makes the
// paper's Fig. 5 argument, then proves base-parameter integrity.
//
// Run with:
//
//	go run ./examples/multiclient
package main

import (
	"fmt"
	"log"
	"sync"

	"menos"
	"menos/internal/data"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const weightSeed = 99
	modelCfg := menos.LlamaTiny()

	dep, err := menos.NewDeployment(menos.DeploymentConfig{
		Model:      modelCfg,
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

	tok, err := data.NewCharTokenizer(data.Shakespeare(), modelCfg.Vocab)
	if err != nil {
		return err
	}
	tokens, err := tok.Encode(data.Shakespeare())
	if err != nil {
		return err
	}
	// Each client fine-tunes on its own private shard.
	shards, err := data.Partition(tokens, 4)
	if err != nil {
		return err
	}

	type clientPlan struct {
		id      string
		adapter menos.AdapterSpec
		cut     int
	}
	plans := []clientPlan{
		{"alice-lora", menos.DefaultLoRA(), 1},
		{"bob-prefix", menos.DefaultPrefix(), 1},
		{"carol-lora-r4", menos.AdapterSpec{Kind: menos.AdapterLoRA, Rank: 4, Alpha: 8,
			Targets: menos.DefaultLoRA().Targets}, 1},
		// dave is privacy-sensitive and cuts deeper, keeping two blocks
		// local (the privacy-efficiency trade-off of §3.1).
		{"dave-deep-cut", menos.DefaultLoRA(), 2},
	}

	const batch, seq = 2, 24
	var wg sync.WaitGroup
	errs := make(chan error, len(plans))
	for i, plan := range plans {
		wg.Add(1)
		go func(i int, plan clientPlan) {
			defer wg.Done()
			c, err := menos.Dial(addr, menos.ClientConfig{
				ClientID:    plan.id,
				Model:       modelCfg,
				WeightSeed:  weightSeed,
				Cut:         plan.cut,
				Adapter:     plan.adapter,
				AdapterSeed: uint64(1000 + i),
				LR:          8e-3,
				Batch:       batch,
				Seq:         seq,
			})
			if err != nil {
				errs <- fmt.Errorf("%s: %w", plan.id, err)
				return
			}
			defer c.Close()
			loader, err := data.NewLoader(shards[i], batch, seq, uint64(50+i))
			if err != nil {
				errs <- err
				return
			}
			var first, last float64
			for step := 0; step < 25; step++ {
				ids, targets := loader.Next()
				res, err := c.Step(ids, targets)
				if err != nil {
					errs <- fmt.Errorf("%s step %d: %w", plan.id, step, err)
					return
				}
				if step == 0 {
					first = res.Loss
				}
				last = res.Loss
			}
			fmt.Printf("%-17s cut=%d  loss %.3f -> %.3f\n", plan.id, plan.cut, first, last)
		}(i, plan)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	// The Fig. 5 argument, live: what the server actually holds versus
	// what per-client duplication would have cost.
	sharedBytes := dep.Store.BaseParamBytes()
	duplicated := sharedBytes * int64(len(plans))
	fmt.Printf("\nbase model on server:   %8.1f MiB (one shared copy)\n", mib(sharedBytes))
	fmt.Printf("duplicated alternative: %8.1f MiB (%d replicas)\n", mib(duplicated), len(plans))
	fmt.Printf("saving from sharing:    %.1f%%\n", 100*(1-float64(sharedBytes)/float64(duplicated)))

	if err := dep.Store.VerifyIntegrity(); err != nil {
		return err
	}
	fmt.Println("shared base integrity: verified bit-exact after all clients trained")
	return nil
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
