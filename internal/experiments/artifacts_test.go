package experiments

import (
	"testing"

	"menos/internal/trace"
)

// TestEveryArtifactTableIsWhole builds every artifact menos-bench can
// print and checks that no table had a row truncated by AddRow
// (menos-bench refuses to print one). Figures are checked through the
// table they render as.
func TestEveryArtifactTableIsWhole(t *testing.T) {
	opts := Options{Iterations: 2, Steps: 4, Seed: 1}
	tables := map[string]*trace.Table{}
	add := func(name string, tbl *trace.Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tables[name] = tbl
	}
	addFigs := func(name string, figs []*trace.Figure, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range figs {
			tables[name+"/"+f.Title] = f.Table()
		}
	}

	tables["measurement"] = MeasurementStudy()
	fig3, _, err := Fig3(opts)
	add("fig3", fig3, err)
	addFigs("fig5", Fig5(), nil)
	sweep := NewSweep(opts)
	figs, err := Fig6(sweep)
	addFigs("fig6", figs, err)
	tbl, err := Table1(sweep)
	add("table1", tbl, err)
	tbl, err = Table2(sweep)
	add("table2", tbl, err)
	tbl, err = Table3(sweep)
	add("table3", tbl, err)
	figs, err = Fig7(opts)
	addFigs("fig7", figs, err)
	for name, fn := range map[string]func(Options) (*ConvergenceResult, error){"fig8": Fig8, "fig9": Fig9} {
		res, err := fn(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		addFigs(name, []*trace.Figure{res.Fig}, nil)
	}
	fig10, err := Fig10(opts)
	addFigs("fig10", []*trace.Figure{fig10}, err)
	tbl, err = AblationMemoryPolicy(opts)
	add("ablations/memory", tbl, err)
	tbl, err = AblationSchedulerPolicy(opts)
	add("ablations/scheduler", tbl, err)
	tables["ablations/sharing"] = AblationBaseSharing()
	tables["extensions/quantization"] = ExtensionQuantization()
	tbl, err = ExtensionMultiServer(opts)
	add("extensions/multi-server", tbl, err)
	tbl, err = ExtensionHeterogeneousClients(opts)
	add("extensions/heterogeneous", tbl, err)
	tbl, err = OverloadSweep(opts)
	add("overload", tbl, err)
	tbl, err = MultiLoRASweep(opts)
	add("multilora", tbl, err)
	tbl, err = WireSweep(opts)
	add("wire", tbl, err)
	tbl, err = FleetSweep(opts)
	add("fleet", tbl, err)

	for name, tbl := range tables {
		if err := tbl.Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(tbl.Rows()) == 0 {
			t.Errorf("%s: no rows", name)
		}
	}
}
