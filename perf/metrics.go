package main

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"menos/internal/memmodel"
	"menos/internal/obs"
)

// runReport is one run of one workload, as written to -out and printed.
type runReport struct {
	Workload   string   `json:"workload"`
	Traced     bool     `json:"traced"`
	Correct    bool     `json:"correct"`
	Violations []string `json:"violations,omitempty"`
	// Attempted counts every step issued (reference run, warm-up and
	// timed); a step that errors, is shed or returns a non-finite loss
	// is Failed.
	Attempted int `json:"ops_attempted"`
	Failed    int `json:"ops_failed"`
	// WallS is the whole run, set-ups and checks included.
	WallS   float64                `json:"wall_s"`
	Metrics map[string]metricValue `json:"metrics"`
	Detail  map[string]any         `json:"detail"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches each definition's unit; a metric the run did not
// produce reads 0, which is how a layer the workload bypasses shows.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// timingDetail records the sample count and, beside the median, the
// highest percentile that still has ten samples beyond it.
func timingDetail(detail map[string]any, sorted []float64) {
	n := len(sorted)
	detail["step_ms_samples"] = n
	if n > 10 {
		detail["step_ms_ptail"] = sorted[n-11]
		detail["step_ms_ptail_pct"] = 100 * float64(n-10) / float64(n)
	}
}

// tcpReport names what runTCP measured.
func tcpReport(w workload, o runOpts, res *tcpResult) runReport {
	spec := w.TCP
	rep := runReport{
		Workload: w.Name, Traced: o.Rec != nil, Violations: res.violations,
		Attempted: res.attempted, Failed: res.failed,
		Detail: map[string]any{
			"tokens_per_step":   spec.Batch * spec.Seq,
			"sessions":          spec.Sessions,
			"timed_steps":       res.steps,
			"timed_wall_s":      res.wall.Seconds(),
			"loss_checksum":     res.checksum,
			"checksum_steps":    o.Preflight,
			"loss_first_10pct":  res.lossFirst,
			"loss_last_10pct":   res.lossLast,
			"setup_s_samples":   res.setups,
			"slice_steps_per_s": res.sliceRates,
		},
	}
	timingDetail(rep.Detail, res.samples)
	perSec := float64(res.steps) / res.wall.Seconds()
	if !rep.Traced {
		rep.Metrics = withUnits(endToEnd, map[string]float64{
			"steps_per_s":          perSec,
			"step_ms_p50":          median(res.samples),
			"wire_bytes_per_step":  float64(res.wireBytes) / float64(res.steps),
			"gpu_bytes_per_client": res.gpuPerClient,
			"setup_s":              medianOf(res.setups),
		})
		return rep
	}

	t := res.traced
	steps := float64(t.steps)
	tracedPerSec := steps / t.win.wall.Seconds()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	values := map[string]float64{
		"client.comp_ms_per_step":   ms(t.comp) / steps,
		"client.comm_ms_per_step":   ms(t.comm) / steps,
		"gpu.persistent_bytes":      float64(t.rig.persistentBytes),
		"gpu.peak_bytes":            float64(t.win.gpuPeak),
		"share.base_bytes":          float64(t.rig.baseBytes),
		"core.new_deployment_s":     t.rig.newDeploymentS,
		"client.dial_s_per_session": t.rig.dialS,
		"go.alloc_bytes_per_step":   float64(t.win.mem1.TotalAlloc-t.win.mem0.TotalAlloc) / steps,
		"go.gc_pause_ms_total":      float64(t.win.mem1.PauseTotalNs-t.win.mem0.PauseTotalNs) / 1e6,
		"trace_overhead":            perSec / tracedPerSec,
	}
	// Server.Stats reports running means; mean × count restores the
	// totals whose difference over the window is wanted.
	s0, s1 := t.win.stats0, t.win.stats1
	if iters := s1.Iterations - s0.Iterations; iters > 0 {
		total := func(avg0, avg1 time.Duration) float64 {
			return ms(avg1*time.Duration(s1.Iterations) - avg0*time.Duration(s0.Iterations))
		}
		values["server.iterations"] = float64(iters)
		values["server.compute_ms_per_iter"] = total(s0.AvgCompute, s1.AvgCompute) / float64(iters)
		values["sched.wait_ms_per_iter"] = total(s0.AvgSchedWait, s1.AvgSchedWait) / float64(iters)
	}
	values["wire.residual_ms_per_step"] = values["client.comm_ms_per_step"] -
		values["sched.wait_ms_per_iter"] - values["server.compute_ms_per_iter"]
	if spec.BatchPolicy.Enabled() {
		// The registry covers the traced deployment's whole life, warm-up
		// included; these are ratios, so the few extra batches do not matter.
		size := t.reg.Histogram(obs.MetricBatchSize, nil)
		hold := t.reg.Histogram(obs.MetricBatchHold, nil)
		if size.Count() > 0 {
			values["batch.mean_size"] = size.Sum() / float64(size.Count())
			values["batch.occupancy"] = values["batch.mean_size"] / float64(spec.BatchPolicy.MaxSize)
			values["batch.hold_ms_per_item"] = hold.Sum() * 1e3 / size.Sum()
		}
	}
	maps.Copy(values, res.replay)
	rep.Detail["traced_steps"] = t.steps
	rep.Detail["traced_steps_per_s"] = tracedPerSec
	rep.Detail["untraced_steps_per_s"] = perSec
	rep.Metrics = withUnits(perLayer, values)
	return rep
}

// simReport names what runSim measured. A step is one simulated client
// iteration; the byte counts are the model's, not measured.
func simReport(w workload, o runOpts, res *simResult) runReport {
	rep := runReport{
		Workload: w.Name, Traced: o.Rec != nil, Violations: res.violations,
		Attempted: res.runs + res.tracedRuns,
		Detail: map[string]any{
			"clients":            o.SimClients,
			"servers":            simServers,
			"iterations_per_run": simIterations,
			"runs":               res.runs,
			"simulated_time_s":   res.first.SimulatedTime.Seconds(),
			"timed_wall_s":       res.wall.Seconds(),
			"setup_s_samples":    res.setups,
		},
	}
	timingDetail(rep.Detail, res.samples)
	perSec := float64(res.clientIter) / res.wall.Seconds()
	if !rep.Traced {
		rep.Metrics = withUnits(endToEnd, map[string]float64{
			"steps_per_s":          perSec,
			"step_ms_p50":          median(res.samples),
			"wire_bytes_per_step":  float64(4 * memmodel.PaperOPTWorkload().TransferBytes()),
			"gpu_bytes_per_client": float64(res.first.PersistentBytes) / float64(o.SimClients),
			"setup_s":              medianOf(res.setups),
		})
		return rep
	}
	values := map[string]float64{
		"splitsim.wall_us_per_client_iter": 1e6 / res.tracedPerSec,
		"sched.sim_grants":                 float64(res.first.SchedStats.Granted),
		"gpu.persistent_bytes":             float64(res.first.PersistentBytes),
		"gpu.peak_bytes":                   float64(res.first.PeakBytes),
		"share.base_bytes":                 float64(memmodel.PaperOPTWorkload().ServerBaseBytes() * simServers),
		"go.alloc_bytes_per_step":          float64(res.mem1.TotalAlloc-res.mem0.TotalAlloc) / float64(res.clientIter),
		"go.gc_pause_ms_total":             float64(res.mem1.PauseTotalNs-res.mem0.PauseTotalNs) / 1e6,
		"trace_overhead":                   perSec / res.tracedPerSec,
	}
	maps.Copy(values, res.replay)
	rep.Detail["traced_steps_per_s"] = res.tracedPerSec
	rep.Detail["untraced_steps_per_s"] = perSec
	rep.Metrics = withUnits(perLayer, values)
	return rep
}

// runWorkload runs one workload once and judges it.
func runWorkload(w workload, o runOpts) (runReport, error) {
	start := time.Now()
	var rep runReport
	if w.TCP != nil {
		res, err := runTCP(w, o)
		if err != nil {
			return runReport{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep = tcpReport(w, o, res)
	} else {
		res, err := runSim(o)
		if err != nil {
			return runReport{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep = simReport(w, o, res)
	}
	if rep.Failed > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d of %d steps failed", rep.Failed, rep.Attempted))
	}
	rep.Correct = len(rep.Violations) == 0
	rep.WallS = time.Since(start).Seconds()
	return rep, nil
}
