package memmodel

import (
	"menos/internal/adapter"
	"menos/internal/model"
)

// Thin wrappers so calibration.go reads declaratively.

func model1OPT() model.Config   { return model.OPT1_3B() }
func model1Llama() model.Config { return model.Llama2_7B() }

// paperLoRASpec is the PEFT-default LoRA configuration the paper uses:
// r=8, α=16, on the query and value projections.
func paperLoRASpec() adapter.Spec {
	return adapter.LoRASpec(adapter.DefaultLoRA())
}

// TinyLlamaWorkload returns a runnable workload over the tiny Llama
// model.
func TinyLlamaWorkload(batch, seq int) Workload {
	return Workload{
		Model:   model.LlamaTiny(),
		Cut:     1,
		Adapter: paperLoRASpec(),
		Batch:   batch,
		Seq:     seq,
	}
}
