package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Rows returns the row data. Only the tests read a table's cells; the
// tables themselves are read as rendered text.
func (t *Table) Rows() [][]string { return t.rows }

func TestSecondsFormatting(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{130 * time.Microsecond, "0.000130"},
		{250 * time.Millisecond, "0.250"},
		{63100 * time.Millisecond, "63.1"},
	}
	for _, tt := range tests {
		if got := Seconds(tt.d); got != tt.want {
			t.Fatalf("Seconds(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestGiBFormatting(t *testing.T) {
	if got := GiB(24 << 30); got != "24.0" {
		t.Fatalf("GiB = %q", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Test Table", "Model", "Clients", "Time (s)")
	tb.AddRow("opt", "4", "7.1")
	tb.AddRow("llama2-7b", "2", "63.1")
	out := tb.Render()
	if !strings.Contains(out, "Test Table") || !strings.Contains(out, "llama2-7b") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: "Clients" and the row values start at the same offset.
	if strings.Index(lines[1], "Clients") != strings.Index(lines[3], "4") {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only")
	if got := tb.Rows()[0][1]; got != "" {
		t.Fatalf("pad = %q", got)
	}
	if out := tb.Render(); !strings.Contains(out, "only") {
		t.Fatal("row lost")
	}
}

func TestFigureTable(t *testing.T) {
	f := NewFigure("Fig X", "clients")
	vanilla := f.NewSeries("vanilla")
	menos := f.NewSeries("menos")
	for n := 1; n <= 3; n++ {
		vanilla.Add(float64(n), float64(n)*10)
		menos.Add(float64(n), 5)
	}
	// Series with a missing point.
	menos.X = menos.X[:2]
	menos.Y = menos.Y[:2]
	out := f.Render()
	if !strings.Contains(out, "vanilla") || !strings.Contains(out, "menos") {
		t.Fatalf("figure:\n%s", out)
	}
	if !strings.Contains(out, "n/a") {
		t.Fatalf("missing point not marked:\n%s", out)
	}
	if !strings.Contains(out, "30") {
		t.Fatalf("values missing:\n%s", out)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(4) != "4" {
		t.Fatal("integer formatting")
	}
	if trimFloat(4.5) != "4.500" {
		t.Fatalf("got %s", trimFloat(4.5))
	}
}

func TestSparklines(t *testing.T) {
	f := NewFigure("Fig", "x")
	a := f.NewSeries("vanilla")
	b := f.NewSeries("menos")
	for i := 1; i <= 5; i++ {
		a.Add(float64(i), float64(i*20))
		b.Add(float64(i), 5)
	}
	out := f.Sparklines()
	if !strings.Contains(out, "vanilla") || !strings.Contains(out, "menos") {
		t.Fatalf("sparklines:\n%s", out)
	}
	// The max point renders as the tallest block.
	if !strings.Contains(out, "█") {
		t.Fatalf("no full block in:\n%s", out)
	}
	// The flat small series renders as low blocks.
	if !strings.Contains(out, "▁") {
		t.Fatalf("no low block in:\n%s", out)
	}
	// Render appends sparklines after the table.
	full := f.Render()
	if !strings.Contains(full, "█") {
		t.Fatal("Render omitted sparklines")
	}
}

func TestSparklinesEmptyFigure(t *testing.T) {
	f := NewFigure("empty", "x")
	f.NewSeries("zero").Add(1, 0)
	if out := f.Sparklines(); out != "" {
		t.Fatalf("all-zero figure produced sparkline %q", out)
	}
}

func TestTableLongRowRecordsError(t *testing.T) {
	tb := NewTable("narrow", "A", "B")
	tb.AddRow("1", "2")
	if tb.Err() != nil {
		t.Fatalf("exact-arity row flagged: %v", tb.Err())
	}
	tb.AddRow("1", "2", "3", "4")
	err := tb.Err()
	if err == nil {
		t.Fatal("overlong row not recorded")
	}
	if !strings.Contains(err.Error(), "narrow") || !strings.Contains(err.Error(), "4 cells") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// The row is still present (truncated) for Render.
	if len(tb.Rows()) != 2 || tb.Rows()[1][1] != "2" {
		t.Fatalf("rows = %v", tb.Rows())
	}
	// The first mistake wins; a later one does not overwrite it.
	tb.AddRow("x", "y", "z")
	if tb.Err() != err {
		t.Fatal("recorded error overwritten")
	}
}

func TestTableShortRowNoError(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("just-one")
	if tb.Err() != nil {
		t.Fatalf("padded short row flagged: %v", tb.Err())
	}
	if got := tb.Rows()[0]; len(got) != 3 || got[0] != "just-one" || got[1] != "" || got[2] != "" {
		t.Fatalf("short row = %q, want [just-one  ]", got)
	}
}

// TestFigureTableJoinsOnX: a figure's table has one column per series,
// rows in first-seen x order, and n/a where a series has no point.
func TestFigureTableJoinsOnX(t *testing.T) {
	f := NewFigure("Fig 6", "clients")
	menos := f.NewSeries("menos")
	menos.Add(1, 154.1)
	menos.Add(4, 160)
	vanilla := f.NewSeries("vanilla")
	vanilla.Add(1, 155)
	tb := f.Table()
	if tb.Err() != nil {
		t.Fatal(tb.Err())
	}
	got := fmt.Sprint(tb.Headers, tb.Rows())
	want := "[clients menos vanilla] [[1 154.100 155] [4 160 n/a]]"
	if got != want {
		t.Fatalf("figure table:\n got %s\nwant %s", got, want)
	}
}

func TestSparklinesAllZeroSeries(t *testing.T) {
	f := NewFigure("flat", "x")
	s := f.NewSeries("zeros")
	s.Add(1, 0)
	s.Add(2, 0)
	// Global max is zero: no scale exists, so no sparklines — but
	// Render must still produce the table without panicking.
	if got := f.Sparklines(); got != "" {
		t.Fatalf("all-zero sparkline = %q", got)
	}
	if out := f.Render(); !strings.Contains(out, "zeros") {
		t.Fatalf("table missing from render:\n%s", out)
	}
}

func TestSparklinesSinglePoint(t *testing.T) {
	f := NewFigure("point", "x")
	f.NewSeries("solo").Add(1, 42)
	got := f.Sparklines()
	want := "solo  █\n"
	if got != want {
		t.Fatalf("single-point sparkline = %q, want %q", got, want)
	}
}

func TestSparklinesMixedWithEmptySeries(t *testing.T) {
	f := NewFigure("mixed", "x")
	full := f.NewSeries("full")
	full.Add(1, 1)
	full.Add(2, 8)
	f.NewSeries("empty") // no points: skipped, no blank line
	got := f.Sparklines()
	want := "full   ▁█\n"
	if got != want {
		t.Fatalf("sparklines = %q, want %q", got, want)
	}
}
