// Command menos-bench regenerates every table and figure from the
// paper's evaluation section and prints them as aligned text tables.
//
// Usage:
//
//	menos-bench [-iterations N] [-steps N] [-seed N] [-only name]
//	            [-trace-out spans.json]
//
// -only selects one artifact, case-insensitively: measurement, fig3,
// fig5, fig6, fig7, fig8, fig9, fig10, table1, table2, table3,
// ablations, extensions, overload, fleet, multilora, wire. By default
// all run except overload and fleet, which deliberately saturate the
// scheduler (docs/ADMISSION.md, docs/FLEET.md), multilora, which sweeps
// batched multi-LoRA serving (docs/BATCHING.md), and wire, which sweeps
// compressed + overlapped activation transport (docs/WIRE.md); all
// four must be requested explicitly.
//
// -trace-out runs one traced Menos simulation and writes its spans as
// Chrome trace-event JSON (load in chrome://tracing or Perfetto); span
// timestamps are virtual time. It also prints the parity check between
// span category totals and the run's Breakdown, and exits 1 unless they
// are equal and no span was dropped. Combined with
// -only multilora the traced run uses the batched serving path, so the
// dump shows batch formation; combined with -only wire it uses
// int8-compressed overlapped transport, so the dump shows client
// compute riding under the wire legs (CI archives it when the smoke
// fails).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"menos/internal/costmodel"
	"menos/internal/experiments"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/simnet"
	"menos/internal/splitsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "menos-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("menos-bench", flag.ContinueOnError)
	iterations := fs.Int("iterations", 12, "simulated fine-tuning iterations per configuration")
	steps := fs.Int("steps", 60, "real fine-tuning steps for convergence runs")
	seed := fs.Uint64("seed", 1, "experiment seed")
	only := fs.String("only", "", "run a single artifact (measurement, fig3..fig10, table1..table3, ablations, extensions, overload, fleet, multilora, wire)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace of one Menos simulation to this file")
	flightDir := fs.String("flight-dir", "", "with -only overload: record flight snapshots (trace window + metrics) of a saturating run into this directory")
	pprofFlag := fs.Bool("pprof", false, "with -flight-dir: capture heap and goroutine pprof profiles alongside each flight snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{Iterations: *iterations, Steps: *steps, Seed: *seed}

	// -only names an artifact case-insensitively, opt-in or default.
	named := func(name string) bool { return strings.EqualFold(*only, name) }
	selected := func(name string) bool { return *only == "" || named(name) }
	ran := false
	start := time.Now()
	var out printer

	if selected("measurement") {
		ran = true
		out.show(experiments.MeasurementStudy())
	}
	if selected("fig3") {
		ran = true
		fig3, _, err := experiments.Fig3(opts)
		if err != nil {
			return err
		}
		out.show(fig3)
	}
	if selected("fig5") {
		ran = true
		for _, fig := range experiments.Fig5() {
			out.show(fig)
		}
		// Sorted so the output is byte-stable run to run.
		reductions := experiments.Fig5Reduction()
		names := make([]string, 0, len(reductions))
		for name := range reductions {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("Fig. 5 headline: %s saving at 4 clients = %.1f%% (paper: OPT 64.1%%, Llama 72.2%%)\n",
				name, reductions[name]*100)
		}
		fmt.Println()
	}

	var sweep *experiments.Sweep
	needSweep := selected("fig6") || selected("table1") || selected("table2") || selected("table3")
	if needSweep {
		sweep = experiments.NewSweep(opts)
	}
	if selected("fig6") {
		ran = true
		figs, err := experiments.Fig6(sweep)
		if err != nil {
			return err
		}
		for _, fig := range figs {
			out.show(fig)
		}
	}
	for _, tbl := range []struct {
		name string
		fn   func(*experiments.Sweep) (renderable, error)
	}{
		{"table1", func(s *experiments.Sweep) (renderable, error) { return experiments.Table1(s) }},
		{"table2", func(s *experiments.Sweep) (renderable, error) { return experiments.Table2(s) }},
		{"table3", func(s *experiments.Sweep) (renderable, error) { return experiments.Table3(s) }},
	} {
		if !selected(tbl.name) {
			continue
		}
		ran = true
		t, err := tbl.fn(sweep)
		if err != nil {
			return err
		}
		out.show(t)
	}

	if selected("fig7") {
		ran = true
		figs, err := experiments.Fig7(opts)
		if err != nil {
			return err
		}
		for _, fig := range figs {
			out.show(fig)
		}
	}
	if selected("fig8") {
		ran = true
		res, err := experiments.Fig8(opts)
		if err != nil {
			return err
		}
		out.show(res.Fig)
		fmt.Printf("Fig. 8 headline: |split − local| final perplexity gap = %.6f (paper: identical)\n", res.FinalGap())
		fmt.Printf("Fig. 8 timing: split %.0f ms/step vs local %.0f ms/step (split pays protocol round-trips)\n\n",
			res.ClientStepSeconds[0]*1000, res.LocalStepSeconds*1000)
	}
	if selected("fig9") {
		ran = true
		res, err := experiments.Fig9(opts)
		if err != nil {
			return err
		}
		out.show(res.Fig)
		fmt.Printf("Fig. 9 headline: |split − local| final perplexity gap = %.6f (paper: identical)\n", res.FinalGap())
		fmt.Printf("Fig. 9 timing: split %.0f ms/step vs local %.0f ms/step (split pays protocol round-trips)\n\n",
			res.ClientStepSeconds[0]*1000, res.LocalStepSeconds*1000)
	}
	if selected("fig10") {
		ran = true
		fig, err := experiments.Fig10(opts)
		if err != nil {
			return err
		}
		out.show(fig)
	}
	if selected("ablations") {
		ran = true
		mem, err := experiments.AblationMemoryPolicy(opts)
		if err != nil {
			return err
		}
		out.show(mem)
		schedTbl, err := experiments.AblationSchedulerPolicy(opts)
		if err != nil {
			return err
		}
		out.show(schedTbl)
		out.show(experiments.AblationBaseSharing())
	}

	if selected("extensions") {
		ran = true
		out.show(experiments.ExtensionQuantization())
		ms, err := experiments.ExtensionMultiServer(opts)
		if err != nil {
			return err
		}
		out.show(ms)
		het, err := experiments.ExtensionHeterogeneousClients(opts)
		if err != nil {
			return err
		}
		out.show(het)
	}

	// The overload sweep is opt-in (-only overload): it deliberately
	// saturates the scheduler and enables admission control, so it is
	// not part of the paper-default artifact set.
	if named("overload") {
		ran = true
		ov, err := experiments.OverloadSweep(opts)
		if err != nil {
			return err
		}
		out.show(ov)
		if *flightDir != "" {
			res, path, err := experiments.OverloadFlight(opts, *flightDir, *pprofFlag)
			if err != nil {
				return err
			}
			fmt.Printf("Flight recorder: %d sheds, final state %s -> %s\n\n",
				res.Rejected, res.Admission.State, path)
		}
	}

	// The multi-LoRA batching sweep is opt-in (-only multilora): it runs
	// clients×caps cells of batched serving (docs/BATCHING.md) to locate
	// the batch-size-vs-latency knee, which the default artifact set
	// does not need.
	if named("multilora") {
		ran = true
		ml, err := experiments.MultiLoRASweep(opts)
		if err != nil {
			return err
		}
		out.show(ml)
	}

	// The wire sweep is opt-in (-only wire): it walks the compression ×
	// overlap × bandwidth surface of the split transport (docs/WIRE.md),
	// which the paper-default artifact set does not need.
	if named("wire") {
		ran = true
		ws, err := experiments.WireSweep(opts)
		if err != nil {
			return err
		}
		out.show(ws)
	}

	// The fleet sweep is opt-in (-only fleet) for the same reason: it
	// runs multi-server fleets past saturation to compare placement
	// policies and the autoscaler (docs/FLEET.md).
	if named("fleet") {
		ran = true
		fl, err := experiments.FleetSweep(opts)
		if err != nil {
			return err
		}
		out.show(fl)
	}

	if *traceOut != "" {
		ran = true
		var pol *sched.BatchPolicy
		if named("multilora") {
			pol = &sched.BatchPolicy{MaxSize: 8, MaxHold: experiments.MultiLoRAHold}
		}
		if err := dumpTrace(*traceOut, opts, pol, named("wire")); err != nil {
			return err
		}
	}

	if !ran {
		return fmt.Errorf("unknown artifact %q", *only)
	}
	if out.err != nil {
		return out.err
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// dumpTrace runs one traced Menos simulation (the paper's OPT setup at
// 6 clients), writes the spans as Chrome trace JSON, and prints the
// span-vs-breakdown parity so the dump is self-validating: a dropped
// span or a category whose totals differ is an error. A non-nil
// batch policy switches the run to batched serving on the multi-LoRA
// sweep's server shape (docs/BATCHING.md); wire switches it to
// int8-compressed overlapped transport (docs/WIRE.md).
func dumpTrace(path string, opts experiments.Options, pol *sched.BatchPolicy, wire bool) error {
	tracer := obs.NewTracer(nil) // sim records spans with explicit virtual times
	cfg := splitsim.Config{
		Mode:       splitsim.ModeMenos,
		Clients:    splitsim.HomogeneousClients(6, memmodel.PaperOPTWorkload(), costmodel.ClientGPUPerf()),
		Iterations: opts.Iterations,
		Tracer:     tracer,
	}
	if pol != nil {
		cfg.Batch = pol
		cfg.GPUs = 4
		cfg.LinkPreset = simnet.LANPreset
	}
	if wire {
		cfg.WireCodec = quant.CodecInt8
		cfg.Overlap = true
	}
	res, err := splitsim.Run(cfg)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	comm, comp, sched := res.Aggregate.Totals()
	totals := tracer.CatTotals()
	fmt.Printf("Trace: %d spans over %v of virtual time -> %s (open in chrome://tracing)\n",
		tracer.Len(), res.SimulatedTime.Round(time.Millisecond), path)
	var mismatch []string
	for _, c := range []struct {
		cat  string
		want time.Duration
	}{{"comm", comm}, {"compute", comp}, {"sched", sched}} {
		fmt.Printf("  %-8s spans %ss, breakdown %ss\n",
			c.cat, experiments.Seconds(totals[c.cat]), experiments.Seconds(c.want))
		if totals[c.cat] != c.want {
			mismatch = append(mismatch, c.cat)
		}
	}
	fmt.Println()
	if n := tracer.Dropped(); n > 0 {
		return fmt.Errorf("trace: %d spans dropped, evicted past the %d-byte ring; %s is incomplete", n, obs.DefaultRingBytes, path)
	}
	if mismatch != nil {
		return fmt.Errorf("trace: span totals differ from the breakdown in %s", strings.Join(mismatch, ", "))
	}
	return nil
}

// renderable is the common surface of tables and figures.
type renderable interface{ Render() string }

// printer prints tables and figures. A table whose AddRow had to
// truncate a row is refused, and so is everything after it: printing
// it would silently drop results, so run returns the refusal and
// menos-bench exits 1. A figure's table has one cell per series by
// construction, so only tables can be refused.
type printer struct{ err error }

func (p *printer) show(r renderable) {
	if p.err != nil {
		return
	}
	if t, ok := r.(*experiments.Table); ok && t.Err() != nil {
		p.err = t.Err()
		return
	}
	fmt.Println(r.Render())
}
