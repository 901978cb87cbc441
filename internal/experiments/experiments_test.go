package experiments

import (
	"strconv"
	"strings"
	"testing"

	"menos/internal/splitsim"
)

func testOpts() Options { return Options{Iterations: 8, Steps: 20, Seed: 3} }

func TestMeasurementStudyTable(t *testing.T) {
	tbl := MeasurementStudy()
	out := tbl.Render()
	for _, want := range []string{"base model parameters", "intermediate results", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig5ReductionMatchesPaper(t *testing.T) {
	red := Fig5Reduction()
	if r := red["OPT-1.3B"]; r < 0.55 || r > 0.78 {
		t.Fatalf("OPT reduction %.3f, paper 0.641", r)
	}
	if r := red["Llama 2-7B"]; r < 0.65 || r > 0.82 {
		t.Fatalf("Llama reduction %.3f, paper 0.722", r)
	}
	figs := Fig5()
	if len(figs) != 2 {
		t.Fatalf("fig5 has %d figures", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Fatalf("fig5 series = %d", len(f.Series))
		}
	}
}

func TestFig6AndTables(t *testing.T) {
	s := NewSweep(testOpts())
	figs, err := Fig6(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig6 figures = %d", len(figs))
	}

	// Headline shape: vanilla Llama at 4 clients is an order of
	// magnitude slower than Menos.
	llama := evalModels()[1]
	v4, err := s.Result(splitsim.ModeVanilla, llama, 4)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := s.Result(splitsim.ModeMenos, llama, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v4.AvgIterationTime() < 5*m4.AvgIterationTime() {
		t.Fatalf("vanilla %v not >> menos %v", v4.AvgIterationTime(), m4.AvgIterationTime())
	}

	t1, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{t1.Render(), t2.Render(), t3.Render()} {
		if !strings.Contains(tbl, "N/A") {
			t.Fatalf("llama 5-6 client cells should be N/A:\n%s", tbl)
		}
		if !strings.Contains(tbl, "menos") || !strings.Contains(tbl, "vanilla") {
			t.Fatalf("missing method rows:\n%s", tbl)
		}
	}
}

func TestFig7PreservingQueues(t *testing.T) {
	figs, err := Fig7(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig7 figures = %d", len(figs))
	}
	for _, f := range figs {
		onDemand, preserve := f.Series[0], f.Series[1]
		// At the largest client count, preserving must schedule far
		// slower than on-demand.
		last := len(onDemand.Y) - 1
		if preserve.Y[last] < 2*onDemand.Y[last] {
			t.Fatalf("%s: preserve %.3f not >> on-demand %.3f",
				f.Title, preserve.Y[last], onDemand.Y[last])
		}
	}
}

func TestFig8ConvergenceOPT(t *testing.T) {
	res, err := Fig8(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	assertConvergence(t, res)
}

func TestFig9ConvergenceLlama(t *testing.T) {
	res, err := Fig9(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	assertConvergence(t, res)
}

func assertConvergence(t *testing.T, res *ConvergenceResult) {
	t.Helper()
	if len(res.Clients) != 3 {
		t.Fatalf("clients = %d", len(res.Clients))
	}
	for i, ppl := range res.Clients {
		first, last := ppl[0], ppl[len(ppl)-1]
		if last >= first {
			t.Fatalf("client %d did not converge: %.2f -> %.2f", i, first, last)
		}
	}
	// The paper's claim, exact: client 1's trajectory equals the local
	// baseline's (identical computation, distributed).
	if gap := res.FinalGap(); gap > 1e-3 {
		t.Fatalf("split vs local final perplexity gap = %v", gap)
	}
	for step := range res.Local {
		diff := res.Clients[0][step] - res.Local[step]
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-3 {
			t.Fatalf("step %d: client %.6f vs local %.6f", step, res.Clients[0][step], res.Local[step])
		}
	}
}

func TestFig10MultiGPU(t *testing.T) {
	fig, err := Fig10(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	one, four := fig.Series[0], fig.Series[1]
	last := len(one.Y) - 1
	if four.Y[last] >= one.Y[last] {
		t.Fatalf("4 GPUs (%.2f s) not faster than 1 GPU (%.2f s) at 10 clients",
			four.Y[last], one.Y[last])
	}
	// 1 GPU degrades from 2 to 10 clients; 4 GPUs stay near-flat.
	if one.Y[last] <= one.Y[0] {
		t.Fatalf("1-GPU series not degrading: %.2f -> %.2f", one.Y[0], one.Y[last])
	}
	if four.Y[last] > 1.6*four.Y[0] {
		t.Fatalf("4-GPU series not flat: %.2f -> %.2f", four.Y[0], four.Y[last])
	}
}

// TestAblations asserts what each kept ablation table shows
// (EXPERIMENTS.md): persist-all cannot serve six OPT clients, preserve
// schedules slower than both release policies, and of the three
// disciplines only plain FCFS never backfills.
func TestAblations(t *testing.T) {
	memTbl, err := AblationMemoryPolicy(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range memTbl.Rows() {
		rows[row[0]] = row
	}
	if row := rows["persist-all"]; row == nil || row[1] != "infeasible" {
		t.Errorf("persist-all row = %q, want infeasible", row)
	}
	sched := func(policy string) float64 {
		row := rows[policy]
		if row == nil {
			t.Fatalf("no %s row:\n%s", policy, memTbl.Render())
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("%s sched %q: %v", policy, row[2], err)
		}
		return v
	}
	if p := sched("preserve"); p <= sched("release-on-wait") || p <= sched("on-demand") {
		t.Errorf("preserve's sched does not exceed both release policies':\n%s", memTbl.Render())
	}

	schedTbl, err := AblationSchedulerPolicy(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	backfills := map[string]string{}
	for _, row := range schedTbl.Rows() {
		backfills[row[0]] = row[3]
	}
	if backfills["fcfs"] != "0" {
		t.Errorf("fcfs backfilled %q times, want 0", backfills["fcfs"])
	}
	for _, policy := range []string{"fcfs+backfill", "smallest-first"} {
		if n, err := strconv.Atoi(backfills[policy]); err != nil || n < 1 {
			t.Errorf("%s backfills = %q, want at least 1", policy, backfills[policy])
		}
	}
}

func TestSweepMemoizes(t *testing.T) {
	s := NewSweep(testOpts())
	m := evalModels()[0]
	a, err := s.Result(splitsim.ModeMenos, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Result(splitsim.ModeMenos, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("sweep did not memoize")
	}
}

// TestFig3DutyCycleOrdering reproduces the Fig. 3 narrative: each
// optimization strictly reduces how long transient memory is held.
// Persist-all pins it near-permanently; on-demand touches it only
// during compute bursts.
func TestFig3DutyCycleOrdering(t *testing.T) {
	tbl, rows, err := Fig3(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Render(), "on-demand") {
		t.Fatalf("table:\n%s", tbl.Render())
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].DutyCycle >= rows[i-1].DutyCycle {
			t.Fatalf("duty cycle not strictly decreasing: %v (%v) -> %v (%v)",
				rows[i-1].Policy, rows[i-1].DutyCycle, rows[i].Policy, rows[i].DutyCycle)
		}
	}
	// Persist-all holds memory almost the whole time; on-demand only
	// in short bursts ("the peak memory usage only happens in a very
	// short period").
	if rows[0].DutyCycle < 0.85 {
		t.Fatalf("persist-all duty = %v, want ~1", rows[0].DutyCycle)
	}
	if rows[3].DutyCycle > 0.35 {
		t.Fatalf("on-demand duty = %v, want small", rows[3].DutyCycle)
	}
	// All policies peak at roughly the same transient size (the
	// activation set); the win is temporal, not spatial.
	for _, r := range rows {
		if r.PeakGiB < 0.8*rows[0].PeakGiB {
			t.Fatalf("%v peak %v far below persist-all %v", r.Policy, r.PeakGiB, rows[0].PeakGiB)
		}
	}
}
