package experiments

import (
	"fmt"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/splitsim"
)

// ExtensionHeterogeneousClients simulates the §3.1 heterogeneity
// story at full scale, a configuration the paper argues for but does
// not evaluate: clients with different batch sizes and cut depths
// sharing one server, which homogeneous sweeps never exercise. Its
// claim is that every such client still completes its rounds in the
// Menos regime.
func ExtensionHeterogeneousClients(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	base := memmodel.PaperLlamaWorkload()

	small := base
	small.Batch = 2
	deep := base
	deep.Cut = 4 // privacy-sensitive client keeps more layers local

	clients := []splitsim.ClientSpec{
		{ID: "standard", Workload: base, Platform: costmodel.ClientGPUPerf()},
		{ID: "small-batch", Workload: small, Platform: costmodel.ClientGPUPerf()},
		{ID: "deep-cut", Workload: deep, Platform: costmodel.ClientGPUPerf()},
		{ID: "cpu-client", Workload: base, Platform: costmodel.ClientCPUPerf()},
	}
	r, err := splitsim.Run(splitsim.Config{
		Mode:       splitsim.ModeMenos,
		Clients:    clients,
		Iterations: opts.Iterations,
	})
	if err != nil {
		return nil, fmt.Errorf("heterogeneous extension: %w", err)
	}
	t := NewTable("Extension: heterogeneous clients (Llama 2-7B, Menos)",
		"client", "round (s)", "comm (s)", "comp (s)", "sched (s)")
	for _, c := range r.Clients {
		t.AddRow(c.ID,
			Seconds(c.Breakdown.AvgTotal()),
			Seconds(c.Breakdown.AvgComm()),
			Seconds(c.Breakdown.AvgComp()),
			Seconds(c.Breakdown.AvgSched()))
	}
	return t, nil
}
