package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/core"
	"menos/internal/model"
	"menos/internal/split"
)

// smallOpts is about a hundredth of a real run: fixed step counts so
// the losses, and with them every check, repeat exactly.
func smallOpts(traced bool) runOpts {
	o := runOpts{
		Seed: 1, Steps: 3, Preflight: 2, SetupReps: 1,
		ReplayBudget: time.Millisecond, SimClients: 128,
	}
	if traced {
		o.Rec = newRecorder()
	}
	return o
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCode: the names, units, directions and bounds
// the driver reads are the ones the program prints and compares with.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "perf" {
		t.Errorf("paths = %v, want [perf]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(f.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not a valid metric/workload name", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, file []benchMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(file), len(code))
		}
		for i, m := range file {
			unique(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q invalid", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s: bound %v out of range", m.Name, m.Bound)
			}
			if want := (benchMetric{code[i].Name, code[i].Unit, code[i].Better, code[i].Bound}); m != want {
				t.Errorf("%s: BENCHMARK.json has %+v, code has %+v", kind, m, want)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	var hasSetup bool
	for _, m := range f.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// TestEveryWorkloadReportsEveryMetric runs all five workloads, untraced
// and traced, at a hundredth of their size, and checks that each result
// line carries exactly the metrics BENCHMARK.json names, that the run is
// judged correct, and that no end-to-end metric reads 0.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	if _, err := pinEnvironment(); err != nil {
		t.Skip(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, want := smallOpts(traced), f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			rep, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d violations=%v",
					w.Name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Violations)
			}
			var buf bytes.Buffer
			if err := emit(&buf, environment{}, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			if len(line) != 4 {
				t.Errorf("%s: result line has keys %v, want correct, attempted, failed, metrics", w.Name, line)
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d named in BENCHMARK.json", w.Name, traced, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if traced && len(o.Rec.summarize()) == 0 {
				t.Errorf("%s: traced run recorded no span", w.Name)
			}
		}
	}
}

// TestGateCatchesPerturbedLoss: one loss off by 1e-9 in the timed run
// breaks the checksum's match with the reference run.
func TestGateCatchesPerturbedLoss(t *testing.T) {
	w, _ := findWorkload("small_plain")
	o := smallOpts(false)
	o.perturbStep = 2
	rep, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || !strings.Contains(strings.Join(rep.Violations, "\n"), "loss_checksum") {
		t.Fatalf("perturbed run judged correct=%v, violations %v", rep.Correct, rep.Violations)
	}
}

// teeConn copies everything read and written to two buffers, so the
// test can re-parse the byte streams frame by frame.
type teeConn struct {
	net.Conn
	mu     sync.Mutex
	rx, tx bytes.Buffer
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.rx.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *teeConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.tx.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// frameBytes parses a captured stream into messages and returns the sum
// of their re-encoded sizes.
func frameBytes(t *testing.T, stream []byte) (frames int, size int64) {
	t.Helper()
	r := bytes.NewReader(stream)
	for r.Len() > 0 {
		m, err := split.ReadMessage(r)
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		var buf bytes.Buffer
		if err := split.WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		frames++
		size += int64(buf.Len())
	}
	return frames, size
}

// TestCountConnEqualsFrameSizes: over a handshake, two steps and Bye,
// the counting conn's total is the sum of the sizes of the frames that
// crossed it.
func TestCountConnEqualsFrameSizes(t *testing.T) {
	dep, err := core.NewDeployment(core.DeploymentConfig{Model: model.OPTTiny(), WeightSeed: weightSeed})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeConn{Conn: raw}
	conn := &countConn{Conn: tee}
	cl, err := client.New(conn, client.Config{
		ClientID: "count", Model: model.OPTTiny(), WeightSeed: weightSeed,
		Adapter: adapter.LoRASpec(adapter.DefaultLoRA()), AdapterSeed: 1, Batch: 1, Seq: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 16)
	for step := 0; step < 2; step++ {
		if _, err := cl.Step(ids, ids); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	txFrames, txSize := frameBytes(t, tee.tx.Bytes())
	rxFrames, rxSize := frameBytes(t, tee.rx.Bytes())
	// Hello + 2×(forward, backward) + Bye out; HelloAck + 2×2 back.
	if txFrames != 6 || rxFrames != 5 {
		t.Errorf("frames out/in = %d/%d, want 6/5", txFrames, rxFrames)
	}
	if conn.tx.Load() != txSize || conn.rx.Load() != rxSize || conn.total() != txSize+rxSize {
		t.Errorf("counted tx/rx %d/%d, frames sum to %d/%d", conn.tx.Load(), conn.rx.Load(), txSize, rxSize)
	}
}

// fakeReport is a report whose every workload × metric has the given
// runs' values.
func fakeReport(t *testing.T, dir, name string, value func(workload, metric string) []float64) string {
	t.Helper()
	var runs []runReport
	for _, w := range workloads {
		n := len(value(w.Name, endToEnd[0].Name))
		for i := 0; i < n; i++ {
			values := map[string]float64{}
			for _, m := range endToEnd {
				values[m.Name] = value(w.Name, m.Name)[i]
			}
			runs = append(runs, runReport{Workload: w.Name, Correct: true, Metrics: withUnits(endToEnd, values)})
		}
	}
	b, err := json.Marshal(report{Runs: runs, Summary: summarize(runs)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareLabels: a 30 % throughput drop on one workload — beyond
// the 25 % bound — is the one regressed row, a spread wider than the bound reads unresolved, and
// everything else reads ok.
func TestCompareLabels(t *testing.T) {
	dir := t.TempDir()
	steady := func(string, string) []float64 { return []float64{100, 100.5, 101, 99.5, 100} }
	a := fakeReport(t, dir, "a.json", steady)
	b := fakeReport(t, dir, "b.json", func(w, m string) []float64 {
		switch {
		case w == "large_plain" && m == "steps_per_s":
			return []float64{70, 70.4, 70.8, 69.6, 70}
		case w == "small_plain" && m == "step_ms_p50":
			return []float64{70, 100, 130, 85, 115}
		}
		return steady(w, m)
	})
	var same bytes.Buffer
	if err := compareFiles(&same, a, a); err != nil {
		t.Fatalf("a report against itself: %v\n%s", err, same.String())
	}
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err == nil {
		t.Fatalf("30%% drop not flagged:\n%s", out.String())
	}
	regressed, unresolved := 0, 0
	for _, row := range strings.Split(out.String(), "\n") {
		f := strings.Fields(row)
		if len(f) == 0 {
			continue
		}
		switch f[len(f)-1] {
		case "regressed":
			regressed++
			if f[0] != "large_plain" || f[1] != "steps_per_s" {
				t.Errorf("unexpected regressed row: %s", row)
			}
		case "unresolved":
			unresolved++
			if f[0] != "small_plain" || f[1] != "step_ms_p50" {
				t.Errorf("unexpected unresolved row: %s", row)
			}
		}
	}
	if regressed != 1 || unresolved != 1 {
		t.Errorf("%d regressed and %d unresolved rows, want 1 and 1:\n%s", regressed, unresolved, out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the rule the benchmark's acceptance is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

// TestRunRejectsBadInput: flag errors surface as errors, not results.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-seconds", "0"}, {"-trace", "2"}, {"-compare", "only-one.json"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
