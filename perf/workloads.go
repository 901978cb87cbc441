package main

import (
	"time"

	"menos/internal/model"
	"menos/internal/quant"
	"menos/internal/sched"
)

// metricDef names one metric the benchmark prints. The same names,
// units, directions and bounds are listed in BENCHMARK.json; the test
// cross-checks the two.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median it may worsen by; 0 for per-layer metrics
}

// endToEnd is what a user of the system sees, per workload. The two
// timings carry the widest bound the contract allows: on the shared
// two-core box this was written on, neighbours move a run's throughput
// by more than a tenth for minutes at a time (README, "Steadiness").
var endToEnd = []metricDef{
	{"steps_per_s", "1/s", "higher", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"wire_bytes_per_step", "bytes", "lower", 0.01},
	{"gpu_bytes_per_client", "bytes", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// setupFloorS is the absolute slack -compare grants setup_s on top of
// its relative bound: set-up is tens of milliseconds, where a quarter
// is within scheduling jitter.
const setupFloorS = 0.05

// perLayer comes from the traced run and the layer replay. A layer a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "client.comp_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "client.comm_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "server.compute_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "server.iterations", Unit: "count", Better: "higher"},
	{Name: "sched.wait_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "wire.residual_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "split.encode_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "split.decode_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "split.frames_per_step", Unit: "count", Better: "lower"},
	{Name: "split.payload_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "quant.pack_us_per_tensor", Unit: "us", Better: "lower"},
	{Name: "quant.unpack_us_per_tensor", Unit: "us", Better: "lower"},
	{Name: "quant.packed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "quant.tensors_per_step", Unit: "count", Better: "lower"},
	{Name: "tensor.matmul_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "tensor.flops_per_step", Unit: "flop", Better: "lower"},
	{Name: "model.body_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "model.body_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "adapter.multilora_ms_per_member", Unit: "ms", Better: "lower"},
	{Name: "adapter.serial_ms_per_member", Unit: "ms", Better: "lower"},
	{Name: "batch.mean_size", Unit: "count", Better: "higher"},
	{Name: "batch.occupancy", Unit: "ratio", Better: "higher"},
	{Name: "batch.hold_ms_per_item", Unit: "ms", Better: "lower"},
	{Name: "sched.submit_grant_us", Unit: "us", Better: "lower"},
	{Name: "gpu.persistent_bytes", Unit: "bytes", Better: "lower"},
	{Name: "gpu.peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "share.base_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.new_deployment_s", Unit: "s", Better: "lower"},
	{Name: "client.dial_s_per_session", Unit: "s", Better: "lower"},
	{Name: "splitsim.wall_us_per_client_iter", Unit: "us", Better: "lower"},
	{Name: "fleet.place_us_per_client", Unit: "us", Better: "lower"},
	{Name: "sched.sim_grants", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
}

// tcpSpec freezes one loopback-TCP workload. A step is one forward
// plus one backward round trip of one (micro-)batch.
type tcpSpec struct {
	Model    model.Config
	Batch    int
	Seq      int
	Sessions int
	Codec    quant.Codec
	// Micro > 0 drives StepPipelined with that many micro-batches per
	// call; 0 drives sequential Step.
	Micro int
	// Ranks are the LoRA ranks, cycled over sessions.
	Ranks []int
	// BatchPolicy, when enabled, turns on server-side batch formation.
	BatchPolicy sched.BatchPolicy
	// Stagger delays session i's first timed step by i×Stagger.
	Stagger time.Duration
	// Warmup steps per session run before the timed window opens
	// (scratch arena, lazy buffers); about 2 % of a 10 s run.
	Warmup int
}

// perfMid is the kernel-bound model: big enough that a step is tens of
// milliseconds of matmuls, small enough to train on two cores.
func perfMid() model.Config {
	return model.Config{
		Name: "perf-mid", Family: model.FamilyOPT,
		Vocab: 96, Dim: 128, Layers: 4, Heads: 4, FFN: 512, MaxSeq: 128,
	}
}

// workload is one named set of inputs. Names are fixed: later issues
// cite them. BENCHMARK.json says in a line why each exists, README.md
// at length.
type workload struct {
	Name string
	TCP  *tcpSpec // nil for sim_fleet
}

var workloads = []workload{
	{
		Name: "small_plain",
		TCP: &tcpSpec{Model: model.OPTTiny(), Batch: 1, Seq: 16, Sessions: 2,
			Ranks: []int{8}, Warmup: 32},
	},
	{
		Name: "large_plain",
		TCP: &tcpSpec{Model: perfMid(), Batch: 2, Seq: 32, Sessions: 2,
			Ranks: []int{8}, Warmup: 4},
	},
	{
		Name: "small_int8_pipelined",
		TCP: &tcpSpec{Model: model.OPTTiny(), Batch: 1, Seq: 16, Sessions: 2,
			Codec: quant.CodecInt8, Micro: 2, Ranks: []int{8}, Warmup: 32},
	},
	{
		Name: "tenants_batched",
		TCP: &tcpSpec{Model: perfMid(), Batch: 1, Seq: 32, Sessions: 8,
			Ranks: []int{4, 8}, BatchPolicy: sched.BatchPolicy{MaxSize: 8},
			Stagger: time.Millisecond, Warmup: 4},
	},
	{
		Name: "sim_fleet",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
