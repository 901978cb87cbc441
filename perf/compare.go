package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// stat summarises one workload × metric over a report's runs.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles follows Python's statistics.quantiles(values, n=4), which is
// what the benchmark's acceptance rule is stated in.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return median(sorted), median(sorted)
	}
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = min(max(j, 1), n-1)
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func summarize(runs []runReport) map[string]map[string]stat {
	out := map[string]map[string]stat{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]stat{}
		}
		for name, v := range r.Metrics {
			s := out[r.Workload][name]
			s.Unit = v.Unit
			s.Values = append(s.Values, v.Value)
			out[r.Workload][name] = s
		}
	}
	for _, metrics := range out {
		for name, s := range metrics {
			sorted := append([]float64(nil), s.Values...)
			sort.Float64s(sorted)
			s.Median = median(sorted)
			s.Q1, s.Q3 = quartiles(sorted)
			metrics[name] = s
		}
	}
	return out
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// verdict labels one workload × end-to-end metric of b against a.
func verdict(def metricDef, a, b stat) (worse float64, label string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
	}
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread() > def.Bound || b.spread() > def.Bound:
		return worse, "unresolved"
	case worse > def.Bound && !(def.Name == "setup_s" && b.Median-a.Median <= setupFloorS):
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints b against a, one row per workload × end-to-end
// metric, and fails when any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tbound\tverdict")
	regressed := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			sa, okA := a.Summary[wl.Name][def.Name]
			sb, okB := b.Summary[wl.Name][def.Name]
			if !okA || !okB {
				continue
			}
			worse, label := verdict(def, sa, sb)
			if label == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				wl.Name, def.Name, def.Unit, sa.Median, sb.Median, worse*100, def.Bound*100, label)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
