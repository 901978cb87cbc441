package memmodel

// Calibration constants. Each substitutes a property of the paper's
// testbed that cannot be observed in this environment; values are
// chosen so the analytic model reproduces the paper's own §2.3
// measurement study (see DESIGN.md §3).
const (
	// bytesPerParam is fp32 parameter storage; the paper fine-tunes in
	// full precision (quantization is cited as orthogonal).
	bytesPerParam = 4

	// bytesPerFloat is fp32 activation storage.
	bytesPerFloat = 4

	// ContextOverheadBytes models the per-serving-process CUDA context.
	// It explains the paper's observation that single-client Menos
	// uses slightly more memory than vanilla: Menos runs one serving
	// process per client plus a manager. 128 MB keeps the paper's own
	// Fig. 10 configuration (10 Llama clients on one V100) feasible,
	// as it must be since the paper ran it.
	ContextOverheadBytes = 128 << 20

	// ManagerOverheadBytes is the shared-parameter manager process's
	// own context ("an extra process to manage the shared base
	// parameters").
	ManagerOverheadBytes = 300 << 20

	// frameOverheadBytes is the protocol framing added to each
	// activation/gradient transfer (header, shape, request ids).
	frameOverheadBytes = 512
)

// MeasurementStudy reproduces the §2.3 measurement: split fine-tuning
// Llama 2-7B with LoRA at batch size 4, reporting the M / A+O / I
// decomposition the paper measured as ≈24 GB / 246 MB / 4 GB.
func MeasurementStudy() (Workload, Footprint) {
	w := PaperLlamaWorkload()
	return w, w.ClientFootprint()
}

// paperSeqLen is the effective tokens-per-sample implied by the
// paper's reported transfer sizes (13.1 MB at batch 16 × dim 2048 for
// OPT; 6.4 MB at batch 4 × dim 4096 for Llama — both ≈100 tokens).
const paperSeqLen = 100

// PaperOPTWorkload returns the paper's OPT-1.3B evaluation
// configuration: LoRA r=8 α=16 on q/v, cut after the first block,
// batch 16.
func PaperOPTWorkload() Workload {
	return Workload{
		Model:   model1OPT(),
		Cut:     1,
		Adapter: paperLoRASpec(),
		Batch:   16,
		Seq:     paperSeqLen,
	}
}

// PaperLlamaWorkload returns the paper's Llama 2-7B evaluation
// configuration: LoRA r=8 α=16 on q/v, cut after the first block,
// batch 4.
func PaperLlamaWorkload() Workload {
	return Workload{
		Model:   model1Llama(),
		Cut:     1,
		Adapter: paperLoRASpec(),
		Batch:   4,
		Seq:     paperSeqLen,
	}
}
