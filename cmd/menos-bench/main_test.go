package main

import (
	"path/filepath"
	"strings"
	"testing"

	"menos/internal/experiments"
)

func TestRunSingleArtifacts(t *testing.T) {
	// Exercise the cheap artifacts end to end through flag parsing.
	// -only matches case-insensitively, the opt-in artifacts included.
	for _, only := range []string{"measurement", "fig3", "fig5", "FIG5", "fig7", "fig10", "ablations", "extensions", "Wire", "MultiLoRA"} {
		t.Run(only, func(t *testing.T) {
			if err := run([]string{"-only", only, "-iterations", "4", "-steps", "5"}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	for _, only := range []string{"fig99", "Wires"} {
		err := run([]string{"-only", only})
		if err == nil || !strings.Contains(err.Error(), "unknown artifact") {
			t.Fatalf("-only %s: err = %v", only, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSweepArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep artifacts in short mode")
	}
	for _, only := range []string{"fig6", "table1", "table2", "table3"} {
		if err := run([]string{"-only", only, "-iterations", "4"}); err != nil {
			t.Fatalf("%s: %v", only, err)
		}
	}
}

// TestShowRefusesTruncatedTable: a table whose AddRow dropped cells is
// an error, not output, and nothing prints after it.
func TestShowRefusesTruncatedTable(t *testing.T) {
	bad := experiments.NewTable("narrow", "A")
	bad.AddRow("1", "2")
	var out printer
	out.show(bad)
	if out.err == nil || !strings.Contains(out.err.Error(), "narrow") {
		t.Fatalf("show(truncated table) left err = %v, want the arity error", out.err)
	}
	first := out.err
	out.show(experiments.NewTable("fine", "A"))
	if out.err != first {
		t.Fatalf("err = %v after a later table, want the first refusal kept", out.err)
	}
}

// TestTraceOutEnforcesParity: -trace-out fails when its dump cannot
// reconstruct the Breakdown. 2000 iterations overfill the tracer's
// byte budget, so spans are dropped and every category total falls
// short.
func TestTraceOutEnforcesParity(t *testing.T) {
	if testing.Short() {
		t.Skip("a 2000-iteration traced run in short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"-only", "none", "-trace-out", filepath.Join(dir, "ok.json")}); err != nil {
		t.Fatalf("default traced run: %v", err)
	}
	err := run([]string{"-only", "none", "-iterations", "2000", "-trace-out", filepath.Join(dir, "full.json")})
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("overfull traced run: err = %v, want the dropped-spans refusal", err)
	}
}
