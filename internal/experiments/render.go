package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Seconds formats a duration as seconds with adaptive precision,
// matching how the paper reports times.
func Seconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s == 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.6f", s)
	case s < 1:
		return fmt.Sprintf("%.3f", s)
	default:
		return fmt.Sprintf("%.1f", s)
	}
}

// Bytes formats a byte count with an adaptive binary unit.
func Bytes(bytes int64) string {
	switch {
	case bytes >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(bytes)/(1<<30))
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(bytes)/(1<<20))
	case bytes >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(bytes)/(1<<10))
	default:
		return fmt.Sprintf("%d B", bytes)
	}
}

// Table is an aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	err     error
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded. A row with more cells
// than the table has columns is truncated, and the first such mismatch
// is recorded: check Err after building (menos-bench refuses to print a
// table that silently lost data).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) && t.err == nil {
		t.err = fmt.Errorf("experiments: row %d of table %q has %d cells but only %d columns",
			len(t.rows), t.Title, len(cells), len(t.Headers))
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Err returns the first row-arity mistake recorded by AddRow, or nil.
func (t *Table) Err() error { return t.err }

// Render writes the aligned table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	var total int
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one line of a figure: y values indexed by x.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing an x axis, rendered as a table
// (one column per series).
type Figure struct {
	Title  string
	XLabel string
	Series []*Series
}

// NewFigure creates a figure.
func NewFigure(title, xLabel string) *Figure {
	return &Figure{Title: title, XLabel: xLabel}
}

// NewSeries adds and returns a named series.
func (f *Figure) NewSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Table converts the figure into a renderable table, joining series on
// x values.
func (f *Figure) Table() *Table {
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	t := NewTable(f.Title, headers...)

	// Collect distinct x values in first-seen order.
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := "n/a"
			for i, sx := range s.X {
				if sx == x {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// Render renders the figure's table followed by per-series sparklines
// so the shape of each curve is visible in plain terminal output.
func (f *Figure) Render() string {
	out := f.Table().Render()
	spark := f.Sparklines()
	if spark != "" {
		out += spark
	}
	return out
}

// sparkLevels are the eight block glyphs used by Sparklines.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparklines renders each series as a row of block characters scaled
// to the figure's global maximum, so relative magnitudes across series
// stay comparable.
func (f *Figure) Sparklines() string {
	var maxY float64
	for _, s := range f.Series {
		for _, y := range s.Y {
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxY <= 0 {
		return ""
	}
	nameWidth := 0
	for _, s := range f.Series {
		if len(s.Name) > nameWidth {
			nameWidth = len(s.Name)
		}
	}
	var b strings.Builder
	for _, s := range f.Series {
		if len(s.Y) == 0 {
			continue
		}
		b.WriteString(s.Name)
		b.WriteString(strings.Repeat(" ", nameWidth-len(s.Name)))
		b.WriteString("  ")
		for _, y := range s.Y {
			idx := int(y / maxY * float64(len(sparkLevels)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkLevels) {
				idx = len(sparkLevels) - 1
			}
			b.WriteRune(sparkLevels[idx])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}
