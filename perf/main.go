// Command perf is the repository's benchmark: five named workloads of
// split fine-tuning — four over real loopback TCP, one virtual-time
// fleet run — each reporting the same five end-to-end metrics, and, in
// a traced run, per-layer numbers. It measures every layer from outside,
// through public functions, and verifies that what it measured was
// correct work. See README.md for the catalogue.
//
// Usage:
//
//	perf -workload name[,name] -seed n -seconds s -trace 0|1 [-trace-out spans.json]
//	perf -repeat n -out report.json
//	perf -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"menos/internal/tensor"
)

// cores is the machine the workloads are sized for. GOMAXPROCS and the
// tensor pool are pinned to it so the load is the same on bigger boxes.
const cores = 2

// environment is recorded with every report: timings only compare
// within one.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	PoolWidth  int     `json:"tensor_pool_width"`
	GoArch     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg_1m"` // -1 when the platform does not say
}

func pinEnvironment() (environment, error) {
	if runtime.NumCPU() < cores {
		return environment{}, fmt.Errorf("%d CPU(s): the workloads need %d", runtime.NumCPU(), cores)
	}
	runtime.GOMAXPROCS(cores)
	tensor.SetParallelism(cores)
	env := environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), PoolWidth: tensor.Parallelism(),
		GoArch: runtime.GOARCH, GoVersion: runtime.Version(), LoadAvg1: -1,
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				env.LoadAvg1 = v
			}
		}
	}
	return env, nil
}

// report is what -out writes and -compare reads.
type report struct {
	Env     environment                `json:"env"`
	Seed    uint64                     `json:"seed"`
	Seconds float64                    `json:"seconds"`
	Repeat  int                        `json:"repeat"`
	Runs    []runReport                `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"`
}

// resultLine is the last line of standard output for one run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// emit prints one run: the detail a reader wants, then — as the last
// line — the result the driver parses.
func emit(w io.Writer, env environment, r runReport) error {
	detail, err := json.MarshalIndent(struct {
		Env environment `json:"env"`
		Run runReport   `json:"run"`
	}{env, r}, "", "  ")
	if err != nil {
		return err
	}
	line, err := json.Marshal(resultLine{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, line)
	return err
}

var errIncorrect = errors.New("correctness gate failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	names := fs.String("workload", "", "workloads to run, comma-separated (default: all)")
	seed := fs.Uint64("seed", 1, "derives loader seeds, adapter seeds and session order")
	seconds := fs.Float64("seconds", 10, "length of each workload's timed window")
	steps := fs.Int("steps", 0, "run exactly this many timed steps per session instead of -seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans to this file")
	repeat := fs.Int("repeat", 1, "run the set this many times, alternating workload order")
	out := fs.String("out", "", "write the full report (every run, medians and quartiles) to this file")
	compare := fs.Bool("compare", false, "compare two reports: perf -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *repeat < 1 || *steps < 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds > 0, -repeat >= 1, -steps >= 0 and -trace 0 or 1")
	}
	set := workloads
	if *names != "" {
		set = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			set = append(set, w)
		}
	}
	env, err := pinEnvironment()
	if err != nil {
		return err
	}
	opts := runOpts{
		Seed: *seed, Seconds: *seconds, Steps: *steps,
		Preflight: 20, SetupReps: 5, ReplayBudget: replayBudget, SimClients: simClients,
	}
	if *trace == 1 {
		opts.Rec = newRecorder()
	}

	rep := report{Env: env, Seed: *seed, Seconds: *seconds, Repeat: *repeat}
	correct := true
	for pass := 0; pass < *repeat; pass++ {
		for i := range set {
			w := set[i]
			if pass%2 == 1 { // alternate the order so drift does not favour a workload
				w = set[len(set)-1-i]
			}
			r, err := runWorkload(w, opts)
			if err != nil {
				return err
			}
			rep.Runs = append(rep.Runs, r)
			correct = correct && r.Correct
			if err := emit(stdout, env, r); err != nil {
				return err
			}
		}
	}
	rep.Summary = summarize(rep.Runs)
	if opts.Rec != nil && *traceOut != "" {
		if err := opts.Rec.write(*traceOut); err != nil {
			return err
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}
