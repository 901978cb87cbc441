package experiments

import (
	"fmt"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/sched"
	"menos/internal/splitsim"
)

// AblationMemoryPolicy sweeps the four memory policies of Fig. 3 on
// the OPT workload, reporting per-round time and scheduling time for
// each. Its claim, which Fig. 3's duty cycles do not make: at six
// clients persist-all cannot serve the roster at all (it fits 4 on one
// V100), and preserve, which keeps each forward's activations until
// its backward, waits longer for grants than either policy that
// releases them.
func AblationMemoryPolicy(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperOPTWorkload()
	// 6 clients: enough that persist-all (Fig. 3(a)) cannot reserve
	// everyone's activations simultaneously — the regime the on-demand
	// design exists for.
	const clients = 6
	t := NewTable(fmt.Sprintf("Ablation: Fig. 3 memory policies (OPT-1.3B, %d clients)", clients),
		"policy", "round (s)", "sched (s)", "comp (s)")
	for _, policy := range []splitsim.MemPolicy{
		splitsim.PolicyPersistAll,
		splitsim.PolicyPreserve,
		splitsim.PolicyReleaseOnWait,
		splitsim.PolicyOnDemand,
	} {
		r, err := splitsim.Run(splitsim.Config{
			Mode:       splitsim.ModeMenos,
			Policy:     policy,
			Clients:    splitsim.HomogeneousClients(clients, w, costmodel.ClientGPUPerf()),
			Iterations: opts.Iterations,
		})
		if err != nil {
			// Policies that cannot serve this client count at all are
			// an ablation result, not a harness failure.
			t.AddRow(policy.String(), "infeasible", "-", "-")
			continue
		}
		t.AddRow(policy.String(),
			Seconds(r.AvgIterationTime()),
			Seconds(r.Aggregate.AvgSched()),
			Seconds(r.Aggregate.AvgComp()))
	}
	return t, nil
}

// AblationSchedulerPolicy compares Algorithm 2's FCFS+backfill against
// pure FCFS and smallest-first under a memory-pressured Llama
// workload, reporting scheduling time and backfill counts. Its claim:
// pure FCFS never backfills and the other two disciplines do, yet at
// this load the three round and schedule times differ by under a
// millisecond, so the table prints them equal.
func AblationSchedulerPolicy(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperLlamaWorkload()
	// 8 clients: enough memory pressure that backward grants collide
	// and backfilling decisions actually differ between disciplines.
	t := NewTable("Ablation: scheduler disciplines (Llama 2-7B, 8 clients)",
		"discipline", "round (s)", "sched (s)", "backfills")
	for _, policy := range []sched.Policy{
		sched.PolicyFCFSBackfill,
		sched.PolicyFCFS,
		sched.PolicySmallestFirst,
	} {
		r, err := splitsim.Run(splitsim.Config{
			Mode:       splitsim.ModeMenos,
			SchedPol:   policy,
			Clients:    splitsim.HomogeneousClients(8, w, costmodel.ClientGPUPerf()),
			Iterations: opts.Iterations,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation sched %v: %w", policy, err)
		}
		t.AddRow(policy.String(),
			Seconds(r.AvgIterationTime()),
			Seconds(r.Aggregate.AvgSched()),
			fmt.Sprintf("%d", r.SchedStats.Backfilled))
	}
	return t, nil
}
