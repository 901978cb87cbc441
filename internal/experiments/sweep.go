package experiments

import (
	"fmt"
	"sync"

	"menos/internal/splitsim"
)

// Sweep runs the Fig. 6 / Tables 1-3 configuration matrix — both
// modes, both models, every client count — exactly once and memoizes
// the results, since four artifacts read the same runs.
type Sweep struct {
	opts Options

	mu      sync.Mutex
	results map[string]*splitsim.Result
}

// NewSweep creates a lazy sweep with the given options.
func NewSweep(opts Options) *Sweep {
	return &Sweep{opts: opts.withDefaults(), results: make(map[string]*splitsim.Result)}
}

// Result returns the memoized run for (mode, model, clients), running
// it on first use. Configurations the paper marks N/A (vanilla Llama
// beyond 4 clients) return (nil, nil).
func (s *Sweep) Result(mode splitsim.Mode, m evalModel, clients int) (*splitsim.Result, error) {
	key := fmt.Sprintf("%v/%s/%d", mode, m.name, clients)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.results[key]; ok {
		return r, nil
	}
	r, err := runMode(mode, m.workload, clients, s.opts.Iterations)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", key, err)
	}
	s.results[key] = r
	return r, nil
}
