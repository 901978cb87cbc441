package experiments

import (
	"fmt"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/quant"
	"menos/internal/splitsim"
)

// Extension experiments: configurations the paper argues for but does
// not evaluate. They exercise the same code paths as the main
// artifacts.

// ExtensionQuantization quantifies the paper's orthogonality claim:
// quantizing the *shared* base stacks with base-model sharing. The
// table reports persistent server memory for 4 Llama clients under
// every combination of {duplicated, shared} × {fp32, int8, int4}.
func ExtensionQuantization() *Table {
	t := NewTable("Extension: quantized shared base (Llama 2-7B, 4 clients, persistent GiB)",
		"precision", "vanilla (duplicated)", "menos (shared)", "combined saving")
	base := memmodel.VanillaPersistentBytes(memmodel.PaperLlamaWorkload(), 4)
	for _, prec := range []quant.Precision{0, quant.Int8, quant.Int4} {
		w := memmodel.PaperLlamaWorkload()
		w.BaseQuant = prec
		name := "fp32"
		if prec != 0 {
			name = prec.String()
		}
		vanilla := memmodel.VanillaPersistentBytes(w, 4)
		shared := memmodel.MenosPersistentBytes(w, 4)
		t.AddRow(name, GiB(vanilla), GiB(shared),
			fmt.Sprintf("%.1f%%", 100*(1-float64(shared)/float64(base))))
	}
	return t
}

// ExtensionMultiServer scales Menos horizontally: 12 Llama clients on
// one vs. two single-V100 servers (each with its own shared base copy
// and scheduler). The per-server client density falls, so both the
// release overhead and the backward queueing shrink.
func ExtensionMultiServer(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperLlamaWorkload()
	t := NewTable("Extension: multi-server scale-out (Llama 2-7B, 12 CPU clients)",
		"servers", "round (s)", "sched (s)", "comp (s)", "persistent (GiB)")
	for _, servers := range []int{1, 2, 3} {
		r, err := splitsim.Run(splitsim.Config{
			Mode:       splitsim.ModeMenos,
			Servers:    servers,
			Clients:    splitsim.HomogeneousClients(12, w, costmodel.ClientCPUPerf()),
			Iterations: opts.Iterations,
		})
		if err != nil {
			return nil, fmt.Errorf("multi-server extension (%d servers): %w", servers, err)
		}
		t.AddRow(fmt.Sprintf("%d", servers),
			Seconds(r.AvgIterationTime()),
			Seconds(r.Aggregate.AvgSched()),
			Seconds(r.Aggregate.AvgComp()),
			GiB(r.PersistentBytes))
	}
	return t, nil
}

// ExtensionHeterogeneousClients simulates the §3.1 heterogeneity
// story at full scale: clients with different batch sizes and cut
// depths sharing one server, which homogeneous sweeps never exercise.
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
