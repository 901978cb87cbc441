package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"menos/internal/costmodel"
	"menos/internal/fleet"
	"menos/internal/memmodel"
	"menos/internal/sched"
	"menos/internal/simnet"
	"menos/internal/splitsim"
)

// The frozen shape of sim_fleet. One splitsim.Run of simIterations is
// about half a second of wall time, so a 10 s window holds about twenty.
const (
	simClients    = 2048
	simServers    = 64
	simGPUs       = 4
	simIterations = 8
	simBatchSize  = 8
	simBatchHold  = 100 * time.Millisecond
)

// simConfig builds the fleet run's whole input.
func simConfig(clients, iterations int) splitsim.Config {
	return splitsim.Config{
		Mode:       splitsim.ModeMenos,
		Clients:    splitsim.HomogeneousClients(clients, memmodel.PaperOPTWorkload(), costmodel.ClientGPUPerf()),
		Iterations: iterations,
		Servers:    simServers,
		GPUs:       simGPUs,
		LinkPreset: simnet.LANPreset,
		Placer:     fleet.NewLeastLoaded(),
		Batch:      &sched.BatchPolicy{MaxSize: simBatchSize, MaxHold: simBatchHold},
	}
}

// simSetup is sim_fleet's set-up: building the config and client specs,
// then one single-iteration run that places every client and lets the
// allocator reach its working size.
func simSetup(clients int) (float64, error) {
	start := time.Now()
	if _, err := splitsim.Run(simConfig(clients, 1)); err != nil {
		return 0, fmt.Errorf("priming run: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// simResult is one run of sim_fleet before it is turned into metrics.
type simResult struct {
	runs       int
	clientIter int       // simulated client iterations in the timed window
	samples    []float64 // wall ms per simulated client iteration, one per Run, sorted
	wall       time.Duration
	setups     []float64
	first      *splitsim.Result
	violations []string
	mem0, mem1 runtime.MemStats

	// Traced run only.
	tracedPerSec float64
	tracedRuns   int
	replay       map[string]float64 // per-layer metrics from the layer replay
}

// simWindow repeats splitsim.Run until the deadline (or for a fixed
// count) and checks every repetition against the first.
func (res *simResult) simWindow(clients int, seconds float64, runs int, rec *recorder) (clientIter int, wall time.Duration, samples []float64, err error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; (runs > 0 && n < runs) || (runs == 0 && time.Now().Before(deadline)); n++ {
		var r *splitsim.Result
		t0 := time.Now()
		err := rec.timed("splitsim.Run", fmt.Sprintf("run%d", n), func() error {
			var err error
			r, err = splitsim.Run(simConfig(clients, simIterations))
			return err
		})
		if err != nil {
			return 0, 0, nil, err
		}
		d := time.Since(t0)
		iters := 0
		for _, c := range r.Clients {
			iters += c.Breakdown.Iterations()
		}
		clientIter += iters
		samples = append(samples, float64(d.Nanoseconds())/1e6/float64(iters))
		if res.first == nil {
			res.first = r
		} else if why := simDiffers(res.first, r); why != "" {
			res.violations = append(res.violations, "repetition differs: "+why)
		}
	}
	return clientIter, time.Since(start), samples, nil
}

// simDiffers names the first field in which two runs of the same config
// disagree; virtual time makes them byte-identical.
func simDiffers(a, b *splitsim.Result) string {
	switch {
	case a.SimulatedTime != b.SimulatedTime:
		return fmt.Sprintf("SimulatedTime %v vs %v", a.SimulatedTime, b.SimulatedTime)
	case a.PersistentBytes != b.PersistentBytes:
		return fmt.Sprintf("PersistentBytes %d vs %d", a.PersistentBytes, b.PersistentBytes)
	case len(a.Clients) != len(b.Clients):
		return fmt.Sprintf("%d vs %d clients", len(a.Clients), len(b.Clients))
	}
	for i := range a.Clients {
		if x, y := a.Clients[i].Breakdown.Iterations(), b.Clients[i].Breakdown.Iterations(); x != y {
			return fmt.Sprintf("client %s ran %d vs %d iterations", a.Clients[i].ID, x, y)
		}
	}
	return ""
}

func runSim(o runOpts) (*simResult, error) {
	res := &simResult{}
	for len(res.setups) < o.SetupReps {
		s, err := simSetup(o.SimClients)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, s)
	}
	seconds := o.Seconds
	if o.Rec != nil {
		seconds /= 2
	}
	runtime.GC()
	runtime.ReadMemStats(&res.mem0)
	var err error
	res.clientIter, res.wall, res.samples, err = res.simWindow(o.SimClients, seconds, o.Steps, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&res.mem1)
	res.runs = len(res.samples)
	sort.Float64s(res.samples)
	if rec := o.Rec; rec != nil {
		iters, wall, samples, err := res.simWindow(o.SimClients, seconds, o.Steps, rec)
		if err != nil {
			return nil, err
		}
		res.tracedRuns = len(samples)
		res.tracedPerSec = float64(iters) / wall.Seconds()
		rp := &replayer{budget: o.ReplayBudget, m: map[string]float64{}}
		res.replay = rp.m
		if err := rec.timed("replay.fleet", "replay", rp.place); err != nil {
			res.violations = append(res.violations, "replay fleet: "+err.Error())
		}
	}
	for i, c := range res.first.Clients {
		if got := c.Breakdown.Iterations(); got != simIterations {
			res.violations = append(res.violations, fmt.Sprintf("client %d ran %d of %d iterations", i, got, simIterations))
			break
		}
	}
	return res, nil
}
