package splitsim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"menos/internal/memmodel"
	"menos/internal/sim"
)

// TestDeadlockedRunLeaksNothing: a simulated client is state plus
// continuations, not a goroutine, so neither a run that ends in
// ErrDeadlock nor a kernel abandoned mid-RunUntil leaves anything
// running behind it.
func TestDeadlockedRunLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()

	// TestPersistAllCapacity's config: eight session-long Llama
	// activation sets cannot share one V100, so seven clients wait for
	// a grant forever.
	cfg := menosCfg(8, memmodel.PaperLlamaWorkload())
	cfg.Policy = PolicyPersistAll
	cfg.Iterations = 2
	_, err := Run(cfg)
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want a deadlock", err)
	}
	if !strings.Contains(err.Error(), "memory grant client-8") {
		t.Fatalf("deadlock report %q does not name client-8's wait", err)
	}
	expectGoroutines(t, before, "after ErrDeadlock")

	k := sim.New()
	stuck := k.NewSignal()
	for i := 0; i < 8; i++ {
		k.After(time.Duration(i)*time.Second, func() { stuck.Wait("abandoned", func() {}) })
	}
	if err := k.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, before, "after abandoning a kernel mid-RunUntil")
}

// expectGoroutines fails unless the goroutine count is back to want
// within a second (a finished goroutine may take a moment to exit).
func expectGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Fatalf("%d goroutines %s, %d before", n, when, want)
	}
}
