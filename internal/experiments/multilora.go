package experiments

import (
	"fmt"
	"time"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/sched"
	"menos/internal/simnet"
	"menos/internal/splitsim"
)

// Multi-LoRA sweep tuning. The sweep serves OPT clients over a LAN so
// communication does not hide server-side effects, on a 4-GPU server so
// a full backward batch fits one grant, with a hold window wide enough
// for lockstep clients to coalesce.
const (
	// MultiLoRAHold is the formation hold; lockstep clients join well
	// inside it, so measured batches fill to the cap.
	MultiLoRAHold = 100 * time.Millisecond
	// multiLoRAGPUs sizes the server so MaxSize concurrent backward
	// demands fit a single batched grant.
	multiLoRAGPUs = 4
)

// MultiLoRABatchCaps are the batch-size axis of the sweep. Cap 1 is
// the serialized baseline: batched mode runs one kernel invocation at
// a time per server, so a size-1 policy serializes every client's
// kernels end to end and the speedup at larger caps is exactly what
// batch formation buys (docs/BATCHING.md).
var MultiLoRABatchCaps = []int{1, 2, 4, 8, 16}

// MultiLoRAClientCounts are the tenancy axis.
var MultiLoRAClientCounts = []int{4, 8, 16, 32}

// MultiLoRASweep measures the batch-size-vs-latency knee of batched
// multi-LoRA serving: for each client count it runs the same workload
// under every batch cap and reports per-client throughput plus the
// speedup over the cap-1 serialized baseline. The knee is the smallest
// cap within 10% of the row's best speedup — past it, larger batches
// buy little because the batched kernel's serial fraction
// (costmodel.BatchedTime) dominates.
func MultiLoRASweep(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperOPTWorkload()
	cols := []string{"clients", "serial (s)"}
	for _, size := range MultiLoRABatchCaps[1:] {
		cols = append(cols, fmt.Sprintf("cap %d (x)", size))
	}
	cols = append(cols, "knee", "iter/s per client @knee")
	t := NewTable(
		fmt.Sprintf("Multi-LoRA batching knee (OPT-6.7B, LAN, %d GPUs, hold %v)", multiLoRAGPUs, MultiLoRAHold),
		cols...)
	for _, clients := range MultiLoRAClientCounts {
		times := make([]time.Duration, len(MultiLoRABatchCaps))
		for i, size := range MultiLoRABatchCaps {
			r, err := runMultiLoRA(w, clients, size, opts.Iterations)
			if err != nil {
				return nil, fmt.Errorf("multilora sweep (%d clients, cap %d): %w", clients, size, err)
			}
			times[i] = r.SimulatedTime
		}
		speedups := make([]float64, len(times))
		best := 0.0
		for i, d := range times {
			speedups[i] = float64(times[0]) / float64(d)
			if speedups[i] > best {
				best = speedups[i]
			}
		}
		knee := MultiLoRABatchCaps[len(MultiLoRABatchCaps)-1]
		kneeIdx := len(times) - 1
		for i, s := range speedups {
			if s >= 0.9*best {
				knee = MultiLoRABatchCaps[i]
				kneeIdx = i
				break
			}
		}
		row := []string{fmt.Sprintf("%d", clients), Seconds(times[0])}
		for _, s := range speedups[1:] {
			row = append(row, fmt.Sprintf("%.2f", s))
		}
		perClient := float64(opts.Iterations) / times[kneeIdx].Seconds()
		row = append(row, fmt.Sprintf("%d", knee), fmt.Sprintf("%.3f", perClient))
		t.AddRow(row...)
	}
	return t, nil
}

// runMultiLoRA is one cell: clients lockstep LoRA tenants under one
// batch cap on a multi-GPU server.
func runMultiLoRA(w memmodel.Workload, clients, size, iterations int) (*splitsim.Result, error) {
	return splitsim.Run(splitsim.Config{
		Mode:       splitsim.ModeMenos,
		Clients:    splitsim.HomogeneousClients(clients, w, costmodel.ClientGPUPerf()),
		Iterations: iterations,
		GPUs:       multiLoRAGPUs,
		LinkPreset: simnet.LANPreset,
		Batch:      &sched.BatchPolicy{MaxSize: size, MaxHold: MultiLoRAHold},
	})
}
