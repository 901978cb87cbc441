package server

// The profiling phase of §3.3: before serving a client, the server
// pushes random input sequences of the client's reported geometry
// through the client's model instance and measures the GPU memory its
// forward and backward computations demand. Profiling needs no
// knowledge of the client's data — only the configuration — making it
// generic over models and adapters.

import (
	"fmt"

	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

// memDemands are the measured per-operation memory demands (the M_f
// and M_b of Algorithm 2).
type memDemands struct {
	ForwardBytes  int64
	BackwardBytes int64
}

// measureBody profiles one client's body section with random
// activations of the reported (batch, seq) geometry. It runs a full
// gradient-enabled forward and backward — verifying the instance and
// adapter actually work — then zeroes any gradients it produced, so
// profiling leaves the instance exactly as it found it.
func measureBody(body *model.BodySection, params []nn.Param, batch, seq, dim int, seed uint64) (memDemands, error) {
	if batch <= 0 || seq <= 0 {
		return memDemands{}, fmt.Errorf("profile: invalid geometry batch=%d seq=%d", batch, seq)
	}
	rng := tensor.NewRNG(seed | 1)
	x := tensor.NewNormal(rng, 0.5, batch*seq, dim)

	y, cache, err := body.Forward(x, batch, seq, true)
	if err != nil {
		return memDemands{}, fmt.Errorf("profile forward: %w", err)
	}
	// Backward demand: retained activations plus the gradient working
	// set (dy/dx ping-pong buffers at the section boundary).
	backward := cache.Bytes() + 3*y.Bytes()

	dy := tensor.NewNormal(rng, 0.01, y.Dim(0), y.Dim(1))
	if _, err := body.Backward(cache, dy); err != nil {
		return memDemands{}, fmt.Errorf("profile backward: %w", err)
	}
	nn.ZeroGrads(params)

	// No-grad forward demand: a few live hidden tensors, not the full
	// cache. Measured as the boundary tensors plus double-buffering.
	forward := 4 * x.Bytes()

	return memDemands{ForwardBytes: forward, BackwardBytes: backward}, nil
}
