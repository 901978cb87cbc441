package experiments

import (
	"fmt"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/splitsim"
)

// Fig3Row quantifies one memory policy's usage pattern.
type Fig3Row struct {
	Policy    splitsim.MemPolicy
	PeakGiB   float64
	AvgGiB    float64
	DutyCycle float64
}

// Fig3 reproduces the design figure "GPU memory usage patterns in
// split fine-tuning with different optimization mechanisms":
// a single Llama client runs several iterations under each of the four
// policies, and the transient-memory timeline is reduced to peak,
// time-average and duty cycle. The paper's qualitative claim — that
// Fig. 3(d) keeps memory "low for most of the iteration" with peaks
// "in a very short period" — becomes a measured duty cycle.
func Fig3(opts Options) (*Table, []Fig3Row, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperLlamaWorkload()
	t := NewTable("Fig. 3: transient GPU memory patterns (Llama 2-7B, 1 client)",
		"policy", "peak (GiB)", "time-avg (GiB)", "duty cycle")
	var rows []Fig3Row
	for _, policy := range []splitsim.MemPolicy{
		splitsim.PolicyPersistAll,
		splitsim.PolicyPreserve,
		splitsim.PolicyReleaseOnWait,
		splitsim.PolicyOnDemand,
	} {
		r, err := splitsim.Run(splitsim.Config{
			Mode:       splitsim.ModeMenos,
			Policy:     policy,
			Clients:    splitsim.HomogeneousClients(1, w, costmodel.ClientGPUPerf()),
			Iterations: opts.Iterations,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("fig3 policy %v: %w", policy, err)
		}
		row := Fig3Row{
			Policy:    policy,
			PeakGiB:   gib(r.PeakTransientBytes()),
			AvgGiB:    gib(r.TimeAvgTransientBytes()),
			DutyCycle: r.DutyCycle(),
		}
		rows = append(rows, row)
		t.AddRow(policy.String(),
			fmt.Sprintf("%.2f", row.PeakGiB),
			fmt.Sprintf("%.2f", row.AvgGiB),
			fmt.Sprintf("%.2f", row.DutyCycle))
	}
	return t, rows, nil
}
