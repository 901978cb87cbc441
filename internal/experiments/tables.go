package experiments

import (
	"time"

	"menos/internal/memmodel"
	"menos/internal/splitsim"
)

// MeasurementStudy reproduces §2.3's motivating measurement: the
// server-side GPU memory decomposition for split fine-tuning Llama
// 2-7B with LoRA at batch size 4 (paper: 24 GB + 246 MB + 4 GB ≈
// 28.7 GB).
func MeasurementStudy() *Table {
	_, fp := memmodel.MeasurementStudy()
	t := NewTable("§2.3 measurement study: Llama 2-7B + LoRA, batch 4 (server side)",
		"component", "size", "paper")
	t.AddRow("base model parameters (M)", Bytes(fp.M), "24 GB")
	t.AddRow("adapter+optimizer (A+O)", Bytes(fp.A+fp.O), "246 MB")
	t.AddRow("intermediate results (I)", Bytes(fp.I), "4 GB")
	t.AddRow("total", Bytes(fp.Total()), "28.7 GB")
	return t
}

// breakdownTable builds one of Tables 1-3 from the sweep.
func breakdownTable(s *Sweep, title string, pick func(r *splitsim.Result) time.Duration) (*Table, error) {
	t := NewTable(title, "model", "method", "1", "2", "3", "4", "5", "6")
	for _, m := range evalModels() {
		for _, mode := range []splitsim.Mode{splitsim.ModeVanilla, splitsim.ModeMenos} {
			row := []string{m.name, mode.String()}
			for n := 1; n <= 6; n++ {
				supported := false
				for _, c := range m.clientCounts {
					if c == n {
						supported = true
					}
				}
				if !supported {
					row = append(row, "N/A")
					continue
				}
				r, err := s.Result(mode, m, n)
				if err != nil {
					return nil, err
				}
				row = append(row, Seconds(pick(r)))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Table1 reproduces "average communication time (s) per fine-tuning
// iteration".
func Table1(s *Sweep) (*Table, error) {
	return breakdownTable(s, "Table 1: average communication time (s) per iteration",
		func(r *splitsim.Result) time.Duration { return r.Aggregate.AvgComm() })
}

// Table2 reproduces "average computation time (s) per fine-tuning
// iteration".
func Table2(s *Sweep) (*Table, error) {
	return breakdownTable(s, "Table 2: average computation time (s) per iteration",
		func(r *splitsim.Result) time.Duration { return r.Aggregate.AvgComp() })
}

// Table3 reproduces "average schedule time (s) per fine-tuning
// iteration".
func Table3(s *Sweep) (*Table, error) {
	return breakdownTable(s, "Table 3: average schedule time (s) per iteration",
		func(r *splitsim.Result) time.Duration { return r.Aggregate.AvgSched() })
}
