// Package memmodel implements the analytic GPU-memory accounting of
// §2.3: the 𝕄 (base model), 𝔸 (adapter), 𝕆 (optimizer state) and 𝕀
// (intermediate results) terms, for full-size model shapes that cannot
// be instantiated on a CPU.
//
// The 𝕀 formulas are derived from — and tested bit-exactly against —
// the activation caches of the real implementation in internal/model:
// the analytic model and the runnable model agree by construction, so
// the full-size projections are the tiny models' measured behaviour
// scaled up.
package memmodel

import (
	"errors"
	"fmt"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/split"
)

// ErrWorkload is returned (wrapped) for invalid workload descriptions.
var ErrWorkload = errors.New("memmodel: invalid workload")

// Workload describes one client's fine-tuning configuration — exactly
// the information the client reports to the server in its Hello, from
// which the server prices §3.3's memory demands.
type Workload struct {
	Model   model.Config
	Cut     int // client keeps blocks [0, Cut)
	Adapter adapter.Spec
	Batch   int
	Seq     int
}

// Validate checks the workload and bounds its adapter by the model, so
// that a workload it passes is one adapter.Spec.Inject can build over
// the model's blocks and its adapter prices (𝔸, 𝕆) cannot overflow.
func (w Workload) Validate() error {
	if err := w.Model.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrWorkload, err)
	}
	if w.Cut < 1 || w.Cut >= w.Model.Layers {
		return fmt.Errorf("%w: cut %d for %d layers", ErrWorkload, w.Cut, w.Model.Layers)
	}
	if err := w.Adapter.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrWorkload, err)
	}
	switch a := w.Adapter; {
	case a.Kind == adapter.KindLoRA && a.Rank > w.Model.Dim:
		return fmt.Errorf("%w: LoRA rank %d above model dim %d", ErrWorkload, a.Rank, w.Model.Dim)
	case a.Kind == adapter.KindPrefix && a.PrefixLen > w.Model.MaxSeq:
		return fmt.Errorf("%w: prefix length %d above max seq %d", ErrWorkload, a.PrefixLen, w.Model.MaxSeq)
	}
	if w.Batch <= 0 || w.Seq <= 0 || w.Seq > w.Model.MaxSeq {
		return fmt.Errorf("%w: batch %d seq %d (max seq %d)", ErrWorkload, w.Batch, w.Seq, w.Model.MaxSeq)
	}
	// An iteration's activations cross the cut in one frame, so rows
	// whose batch·seq·dim floats cannot be framed are unusable. Bounding
	// them here, by division, also keeps every price's product in int64.
	maxRows := split.MaxFrameBytes / bytesPerFloat / w.Model.Dim
	if w.Batch > maxRows/w.Seq {
		return fmt.Errorf("%w: batch %d × seq %d rows of dim %d exceed the %d-byte frame limit",
			ErrWorkload, w.Batch, w.Seq, w.Model.Dim, split.MaxFrameBytes)
	}
	return nil
}

// serverBlocks returns the number of transformer blocks the server
// hosts.
func (w Workload) serverBlocks() int64 {
	return int64(w.Model.Layers - w.Cut)
}

// rows returns the token count per iteration (batch × seq).
func (w Workload) rows() int64 { return int64(w.Batch) * int64(w.Seq) }

// ServerBaseBytes returns 𝕄: the shared base parameters hosted by the
// server, in fp32.
func (w Workload) ServerBaseBytes() int64 {
	return w.serverBlocks() * w.Model.BlockParams() * bytesPerParam
}

// AdapterBytes returns 𝔸: the client's server-side adapter parameters.
func (w Workload) AdapterBytes() int64 {
	return w.Adapter.ParamsPerBlock(w.Model.Dim) * w.serverBlocks() * bytesPerParam
}

// GradBytes returns the adapter gradient accumulator footprint (same
// shape as 𝔸).
func (w Workload) GradBytes() int64 { return w.AdapterBytes() }

// OptimizerBytes returns 𝕆: persistent optimizer state for the
// adapter parameters.
func (w Workload) OptimizerBytes() int64 { return optimizerBytes(w.AdapterBytes()) }

// optimizerBytes is 𝕆 for adapterBytes of trainable parameters: Adam,
// the one optimizer either peer runs, keeps two moment buffers per
// parameter.
func optimizerBytes(adapterBytes int64) int64 { return 2 * adapterBytes }

// PersistentClientBytes returns the per-client state that must stay
// resident between iterations under Menos: the server-side adapter's
// parameters, gradients and optimizer state, and the client process's
// GPU context. The server reserves it at handshake, before it builds
// the adapter.
func (w Workload) PersistentClientBytes() int64 {
	a := w.AdapterBytes()
	return a + a + optimizerBytes(a) + ContextOverheadBytes
}

// activationFloatsPerRowPerBlock returns the retained activation
// scalars per token per transformer block during a gradient-enabled
// forward pass. The formula is derived term-by-term from the cache
// structs of internal/model and internal/adapter; the memmodel tests
// assert exact agreement with the instantiated tiny models.
func (w Workload) activationFloatsPerRowPerBlock() int64 {
	d := int64(w.Model.Dim)
	f := int64(w.Model.FFN)
	h := int64(w.Model.Heads)
	ext := int64(w.Seq) // attention context length (prefix extends it)
	if w.Adapter.Kind == adapter.KindPrefix {
		ext += int64(w.Adapter.PrefixLen)
	}

	var base int64
	switch w.Model.Family {
	case model.FamilyOPT:
		// norm1 (d+1) + attn (7d + h·ext) + norm2 (d+1) + ffn (d + 2f)
		base = 10*d + 2*f + h*ext + 2
	case model.FamilyLlama:
		// norm1 (d+1) + attn (7d + h·ext) + norm2 (d+1) + swiglu (2d + 4f)
		base = 11*d + 4*f + h*ext + 2
	}

	if w.Adapter.Kind == adapter.KindLoRA {
		// Each wrapped projection retains x (d) and x·A (rank).
		base += int64(len(w.Adapter.Targets)) * (d + int64(w.Adapter.Rank))
	}
	return base
}

// ActivationBytes returns 𝕀: the intermediate results retained across
// the server's blocks for one gradient-enabled forward pass. This is
// what a memory-preserving policy keeps resident while waiting for the
// client's gradients, and what Menos releases and recomputes.
func (w Workload) ActivationBytes() int64 {
	return w.activationFloatsPerRowPerBlock() * w.rows() * w.serverBlocks() * bytesPerFloat
}

// NoGradForwardBytes returns M_f: the high-water mark of the working
// memory of the non-gradient forward pass of Fig. 3(d), independent of
// depth. It is derived term by term from what a block's no-grad
// forward holds at once in internal/model, and the memmodel property
// test checks it against the scratch arena's measured high-water.
// Throughout a block the hidden entering it (d per row) stays live, and
// on top of it the larger of the two sublayers' peaks:
//   - attention: the Norm1 output, q, k, v and the context (5d per
//     row), plus the head loop's buffers — each (batch, head) body's
//     query, key, value and output slices and its score matrix. They
//     are priced for every body at once, the most the pool can run in
//     parallel, so the price holds at any parallelism. The O
//     projection's output, and a LoRA wrapping's x·A and x·A·B, stay
//     below that;
//   - the FFN: the first residual sum and the Norm2 output (2d), with
//     OPT's up-projection and GELU outputs (2f) or, at the down
//     projection, the GELU output and the result (f + d); Llama's
//     SwiGLU holds three f-wide temporaries and then the result (3f + d).
func (w Workload) NoGradForwardBytes() int64 {
	d := int64(w.Model.Dim)
	f := int64(w.Model.FFN)
	h := int64(w.Model.Heads)
	batch, seq := int64(w.Batch), int64(w.Seq)
	ext := seq // attention context length (prefix extends it)
	if w.Adapter.Kind == adapter.KindPrefix {
		ext += int64(w.Adapter.PrefixLen)
	}
	headLoop := batch * ((2*seq+2*ext)*d + h*seq*ext)
	attn := 6*d*w.rows() + headLoop
	var ffn int64
	switch w.Model.Family {
	case model.FamilyOPT:
		ffn = (3*d + f + max(f, d)) * w.rows()
	case model.FamilyLlama:
		ffn = (4*d + 3*f) * w.rows()
	}
	return max(attn, ffn) * bytesPerFloat
}

// BackwardPeakBytes returns the peak memory of the re-forward plus
// backward of Fig. 3(d): the full activation set plus a gradient
// working set.
func (w Workload) BackwardPeakBytes() int64 {
	d := int64(w.Model.Dim)
	grad := 3 * d * w.rows() * bytesPerFloat // dy/dx ping-pong + head temporaries
	return w.ActivationBytes() + grad
}

// TransferBytes returns the per-direction payload of one activation or
// gradient exchange at the cut: batch × seq × dim fp32 values plus
// framing.
func (w Workload) TransferBytes() int64 {
	return w.rows()*int64(w.Model.Dim)*bytesPerFloat + frameOverheadBytes
}

// Footprint is the §2.3 decomposition for one client.
type Footprint struct {
	M, A, O, I int64
}

// Total returns M+A+O+I.
func (f Footprint) Total() int64 { return f.M + f.A + f.O + f.I }

// ClientFootprint returns the full decomposition for one client's
// workload.
func (w Workload) ClientFootprint() Footprint {
	return Footprint{
		M: w.ServerBaseBytes(),
		A: w.AdapterBytes() + w.GradBytes(),
		O: w.OptimizerBytes(),
		I: w.ActivationBytes(),
	}
}

// VanillaPersistentBytes returns the persistent server footprint for n
// identical clients under vanilla split learning (Eq. 2's persistent
// part): the base model and per-client states are all duplicated.
func VanillaPersistentBytes(w Workload, n int) int64 {
	per := w.ServerBaseBytes() + w.AdapterBytes() + w.GradBytes() + w.OptimizerBytes()
	return per * int64(n)
}

// MenosPersistentBytes returns the persistent server footprint for n
// identical clients under Menos (Eq. 3's persistent part): one shared
// base copy plus per-client adapter state and process contexts, plus
// the shared-store manager process.
func MenosPersistentBytes(w Workload, n int) int64 {
	return w.ServerBaseBytes() + ManagerOverheadBytes +
		int64(n)*w.PersistentClientBytes()
}

// VanillaPeakBytes returns the peak footprint for n concurrent vanilla
// clients, each preserving its activations throughout (Eq. 2).
func VanillaPeakBytes(w Workload, n int) int64 {
	per := w.ServerBaseBytes() + w.AdapterBytes() + w.GradBytes() +
		w.OptimizerBytes() + w.ActivationBytes()
	return per * int64(n)
}

// MenosPeakBytes returns the peak footprint under Menos' on-demand
// policy with a single in-flight backward (Eq. 3): shared base,
// per-client persistent state, and one transient activation set.
func MenosPeakBytes(w Workload, n int) int64 {
	return MenosPersistentBytes(w, n) + w.BackwardPeakBytes()
}
