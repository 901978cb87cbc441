package experiments

import (
	"fmt"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/splitsim"
)

// Fig5 reproduces "GPU memory consumption for persistent components"
// (base parameters, adapters, optimizer state) as the client count
// scales, for both evaluation models.
func Fig5() []*Figure {
	var figs []*Figure
	for _, m := range evalModels() {
		fig := NewFigure(
			fmt.Sprintf("Fig. 5 (%s): persistent GPU memory (GiB) vs clients", m.name),
			"clients")
		vanilla := fig.NewSeries("vanilla")
		menos := fig.NewSeries("menos")
		for _, n := range m.clientCounts {
			vanilla.Add(float64(n), gib(memmodel.VanillaPersistentBytes(m.workload, n)))
			menos.Add(float64(n), gib(memmodel.MenosPersistentBytes(m.workload, n)))
		}
		figs = append(figs, fig)
	}
	return figs
}

// Fig5Reduction returns the headline savings at 4 clients (the paper
// reports 64.1% for OPT and 72.2% for Llama).
func Fig5Reduction() map[string]float64 {
	out := make(map[string]float64, 2)
	for _, m := range evalModels() {
		v := float64(memmodel.VanillaPersistentBytes(m.workload, 4))
		me := float64(memmodel.MenosPersistentBytes(m.workload, 4))
		out[m.name] = 1 - me/v
	}
	return out
}

// Fig6 reproduces "average time for clients to complete one round of
// fine-tuning" vs client count.
func Fig6(s *Sweep) ([]*Figure, error) {
	var figs []*Figure
	for _, m := range evalModels() {
		fig := NewFigure(
			fmt.Sprintf("Fig. 6 (%s): per-round fine-tuning time (s) vs clients", m.name),
			"clients")
		series := map[splitsim.Mode]*Series{
			splitsim.ModeVanilla: fig.NewSeries("vanilla"),
			splitsim.ModeMenos:   fig.NewSeries("menos"),
		}
		for _, mode := range []splitsim.Mode{splitsim.ModeVanilla, splitsim.ModeMenos} {
			for _, n := range m.clientCounts {
				r, err := s.Result(mode, m, n)
				if err != nil {
					return nil, err
				}
				series[mode].Add(float64(n), r.AvgIterationTime().Seconds())
			}
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig7 reproduces "average schedule time with increasing number of
// clients": Menos' on-demand allocation against the memory-preserving
// policy (Fig. 3(b)).
func Fig7(opts Options) ([]*Figure, error) {
	opts = opts.withDefaults()
	type cfg struct {
		name     string
		workload memmodel.Workload
		counts   []int
	}
	cases := []cfg{
		{"OPT-1.3B", memmodel.PaperOPTWorkload(), []int{2, 4, 8, 16}},
		{"Llama 2-7B", memmodel.PaperLlamaWorkload(), []int{2, 3, 4}},
	}
	var figs []*Figure
	for _, c := range cases {
		fig := NewFigure(
			fmt.Sprintf("Fig. 7 (%s): average schedule time (s) vs clients", c.name),
			"clients")
		onDemand := fig.NewSeries("on-demand (Menos)")
		preserve := fig.NewSeries("memory-preserving")
		for _, n := range c.counts {
			for _, policy := range []splitsim.MemPolicy{splitsim.PolicyOnDemand, splitsim.PolicyPreserve} {
				r, err := splitsim.Run(splitsim.Config{
					Mode:       splitsim.ModeMenos,
					Policy:     policy,
					Clients:    splitsim.HomogeneousClients(n, c.workload, costmodel.ClientGPUPerf()),
					Iterations: opts.Iterations,
				})
				if err != nil {
					return nil, fmt.Errorf("fig7 %s n=%d policy=%v: %w", c.name, n, policy, err)
				}
				sched := r.Aggregate.AvgSched().Seconds()
				if policy == splitsim.PolicyOnDemand {
					onDemand.Add(float64(n), sched)
				} else {
					preserve.Add(float64(n), sched)
				}
			}
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig10 reproduces "fine-tuning time with multi-GPU server and scaling
// clients on CPU devices": Llama 2, clients 2..10, one vs four V100s.
func Fig10(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperLlamaWorkload()
	fig := NewFigure("Fig. 10: fine-tuning time (s), CPU clients, multi-GPU server", "clients")
	oneGPU := fig.NewSeries("1 GPU")
	fourGPU := fig.NewSeries("4 GPUs")
	for _, n := range []int{2, 4, 6, 8, 10} {
		for _, gpus := range []int{1, 4} {
			r, err := splitsim.Run(splitsim.Config{
				Mode:       splitsim.ModeMenos,
				GPUs:       gpus,
				Clients:    splitsim.HomogeneousClients(n, w, costmodel.ClientCPUPerf()),
				Iterations: opts.Iterations,
			})
			if err != nil {
				return nil, fmt.Errorf("fig10 n=%d gpus=%d: %w", n, gpus, err)
			}
			secs := r.AvgIterationTime().Seconds()
			if gpus == 1 {
				oneGPU.Add(float64(n), secs)
			} else {
				fourGPU.Add(float64(n), secs)
			}
		}
	}
	return fig, nil
}

func gib(bytes int64) float64 { return float64(bytes) / (1 << 30) }
