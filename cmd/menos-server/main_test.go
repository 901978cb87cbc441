package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-model", "does-not-exist"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := run([]string{"-model", "opt-tiny", "-quant", "int3"}); err == nil {
		t.Fatal("unknown quantization accepted")
	}
	if err := run([]string{"-model", "opt-tiny", "-addr", "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad address accepted")
	}
	// The bad address makes a wrongly accepted value fail too, later and
	// for another reason, instead of serving forever.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-tenant-cap", "-1"}, "-tenant-cap"},
		{[]string{"-batch-size", "4", "-batch-hold", "-1ms"}, "MaxHold"},
	} {
		args := append([]string{"-model", "opt-tiny", "-addr", "256.0.0.1:bad"}, c.args...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run %v: error %v, want one naming %s", c.args, err, c.want)
		}
	}
}

func TestExportWeights(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.mcpk")
	if err := run([]string{"-model", "opt-tiny", "-seed", "9", "-export-weights", path}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty weights export")
	}
	if err := run([]string{"-model", "opt-tiny", "-export-weights", "/nonexistent-dir/x"}); err == nil {
		t.Fatal("bad export path accepted")
	}
}
