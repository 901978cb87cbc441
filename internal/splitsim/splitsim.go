// Package splitsim runs split fine-tuning workloads on the performance
// plane: clients, the WAN link, the server's GPUs, the Menos scheduler
// and the vanilla task-swapping baseline, all as deterministic
// discrete-event processes. One simulated "154-second" iteration takes
// microseconds of wall time, which is what makes regenerating every
// timing figure of the paper practical.
package splitsim

import (
	"errors"
	"fmt"
	"time"

	"menos/internal/costmodel"
	"menos/internal/fleet"
	"menos/internal/gpu"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/sim"
	"menos/internal/simnet"
	"menos/internal/trace"
)

// ErrConfig is returned (wrapped) for invalid simulation configs.
var ErrConfig = errors.New("splitsim: invalid config")

// Mode selects the server system under test.
type Mode int

// Server modes.
const (
	ModeMenos   Mode = iota + 1 // base-model sharing + on-demand allocation
	ModeVanilla                 // per-client replicas + task-level swapping
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeMenos:
		return "menos"
	case ModeVanilla:
		return "vanilla"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// MemPolicy selects the Menos memory-allocation policy, one per
// sub-figure of Fig. 3.
type MemPolicy int

// Memory policies.
const (
	// PolicyOnDemand is Fig. 3(d): no-grad first forward, release on
	// every wait, re-forward before backward. The Menos default.
	PolicyOnDemand MemPolicy = iota + 1
	// PolicyReleaseOnWait is Fig. 3(c): grad-enabled first forward,
	// released while waiting for gradients, re-forward on backward.
	PolicyReleaseOnWait
	// PolicyPreserve is Fig. 3(b): activations held from forward
	// until the backward completes (released between iterations).
	PolicyPreserve
	// PolicyPersistAll is Fig. 3(a): activation memory reserved for
	// the client's whole session (vanilla-style, but with base
	// sharing).
	PolicyPersistAll
)

// String returns the policy name.
func (p MemPolicy) String() string {
	switch p {
	case PolicyOnDemand:
		return "on-demand"
	case PolicyReleaseOnWait:
		return "release-on-wait"
	case PolicyPreserve:
		return "preserve"
	case PolicyPersistAll:
		return "persist-all"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ClientSpec describes one simulated client.
type ClientSpec struct {
	ID       string
	Workload memmodel.Workload
	Platform costmodel.Perf // client-side compute (GPU or CPU)
	// StartDelay staggers the client's arrival (client churn: the
	// vanilla baseline's task-level sharing exists precisely to serve
	// "new incoming clients").
	StartDelay time.Duration
}

// Config describes one simulation run.
type Config struct {
	Mode     Mode
	Policy   MemPolicy    // Menos only; zero value means PolicyOnDemand
	SchedPol sched.Policy // Menos only; zero value means FCFS+backfill
	// SLO, when enabled, activates adaptive admission control on every
	// simulated scheduler (docs/ADMISSION.md), evaluated in virtual
	// time. Shed requests back off for the controller's retry-after
	// hint and resubmit; Result.Rejected counts the sheds. The zero
	// value leaves the grant sequence identical to a plain run.
	SLO     sched.SLO
	GPUSpec gpu.Spec
	GPUs    int // per server
	// Servers scales out horizontally (Menos mode): each server hosts
	// its own shared base copy on its own GPUs with its own scheduler
	// (the paper's "GPUs distributed across multiple servers", managed
	// by a distributed runtime). Clients are assigned by Placer.
	Servers int
	// Placer chooses the server for each client (Menos multi-server
	// runs). Nil means fleet.RoundRobin, which is bit-identical to the
	// historical i mod Servers assignment — existing configs reproduce
	// their exact virtual-time traces.
	Placer fleet.Placer
	// Autoscale, when set, lets the fleet grow and shrink during the
	// run (Menos mode only): Servers becomes the *starting* size,
	// clients are placed when they arrive instead of up front, an
	// autoscaler evaluated on the virtual clock adds or drains servers
	// from queue-depth and admission signals, and clients on draining
	// servers migrate at iteration boundaries (paying the transfer
	// cost for their persistent state). Nil keeps the fleet static.
	Autoscale *fleet.AutoscaleConfig
	// Batch, when set and enabled, coalesces compatible server phases
	// (same server, request kind, cut and sequence length) into batched
	// kernel invocations formed in virtual time under the policy's
	// size/hold/byte limits (docs/BATCHING.md). Batched mode models the
	// device as owned by one invocation at a time, so a MaxSize-1
	// policy is the serialized baseline the multilora sweep compares
	// against. Menos mode with PolicyOnDemand and a static fleet only.
	Batch *sched.BatchPolicy
	// WireCodec compresses the activation/gradient payloads on the
	// simulated link (docs/WIRE.md): every x_c/x_s/g_c/g_s transfer
	// ships codec.WireRatio() of its fp32 bytes (fp16 ½, int8 ¼; the
	// per-row scale overhead is negligible at model widths and is
	// dropped here). Quantization compute is not modeled — the real
	// plane's menos_wire_codec_seconds shows it is orders of magnitude
	// below the link time this knob exists to shrink. The zero value
	// (CodecFP32) transfers raw bytes, bit-identical to historical runs.
	WireCodec quant.Codec
	// Overlap enables comm/compute pipelining (docs/WIRE.md): each
	// iteration's client-local compute runs concurrently with the
	// wire+server leg, modeling the steady state of the double-buffered
	// microbatch schedule where iteration time is max(wire, client)
	// instead of their sum. Menos mode with PolicyOnDemand, serial
	// (un-batched) serving and a static fleet only — the same envelope
	// the TCP client's StepPipelined supports.
	Overlap    bool
	ServerPerf costmodel.Perf
	Clients    []ClientSpec
	Iterations int
	// LinkPreset builds the client-server link; nil means the paper's
	// WAN.
	LinkPreset func(*sim.Kernel) *simnet.Link
	// Tracer, when set, records every client's per-iteration spans
	// (comm transfers, compute segments, grant waits) in *virtual*
	// time: span timestamps are kernel time, never the wall clock, so
	// a dumped Chrome trace shows the simulated timeline. The span
	// category totals reconstruct the run's trace.Breakdown exactly.
	// Spans carry the same deterministic obs.IterTraceID(client, iter)
	// IDs a real TCP run stamps on the wire, so identical workloads
	// correlate across planes.
	Tracer *obs.Tracer
	// Flight, when set, snapshots the trace window and metrics on shed
	// and admission-state transitions (Menos mode). Snapshots use the
	// synchronous trigger path, so a given config produces the same
	// flight records on every run.
	Flight *obs.FlightRecorder
	// Metrics, when set, instruments the simulated scheduler and GPUs
	// against the registry, with wait times measured on the virtual
	// clock. The vanilla baseline additionally counts swap traffic
	// under menos_swap_*.
	Metrics *obs.Registry
}

func (c *Config) applyDefaults() {
	if c.Policy == 0 {
		c.Policy = PolicyOnDemand
	}
	if c.SchedPol == 0 {
		c.SchedPol = sched.PolicyFCFSBackfill
	}
	if c.GPUs == 0 {
		c.GPUs = 1
	}
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.GPUSpec.MemoryBytes == 0 {
		c.GPUSpec = gpu.V100()
	}
	if c.ServerPerf.EffectiveFLOPS == 0 {
		c.ServerPerf = costmodel.V100Perf()
	}
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.LinkPreset == nil {
		c.LinkPreset = simnet.WANPreset
	}
}

func (c *Config) validate() error {
	if c.Mode != ModeMenos && c.Mode != ModeVanilla {
		return fmt.Errorf("%w: mode %d", ErrConfig, int(c.Mode))
	}
	if len(c.Clients) == 0 {
		return fmt.Errorf("%w: no clients", ErrConfig)
	}
	if c.Mode == ModeVanilla && c.Servers > 1 {
		return fmt.Errorf("%w: the vanilla baseline models a single server", ErrConfig)
	}
	if c.Mode == ModeVanilla && (c.Autoscale != nil || c.Placer != nil) {
		return fmt.Errorf("%w: the vanilla baseline has no fleet plane", ErrConfig)
	}
	if c.Autoscale != nil {
		if err := c.Autoscale.Validate(); err != nil {
			return fmt.Errorf("%w: autoscale: %v", ErrConfig, err)
		}
		norm := fleet.NewAutoscaler(*c.Autoscale).Config()
		if c.Servers < norm.Min || c.Servers > norm.Max {
			return fmt.Errorf("%w: autoscale: starting Servers=%d outside [Min=%d, Max=%d]",
				ErrConfig, c.Servers, norm.Min, norm.Max)
		}
	}
	if c.Batch != nil {
		if err := c.Batch.Validate(); err != nil {
			return fmt.Errorf("%w: batch: %v", ErrConfig, err)
		}
		if c.Batch.Enabled() {
			if c.Mode != ModeMenos {
				return fmt.Errorf("%w: batching requires Menos mode", ErrConfig)
			}
			if c.Policy != PolicyOnDemand {
				return fmt.Errorf("%w: batching requires the on-demand policy (got %v)", ErrConfig, c.Policy)
			}
			if c.Autoscale != nil {
				return fmt.Errorf("%w: batching requires a static fleet", ErrConfig)
			}
		}
	}
	if _, err := quant.ParseCodec(c.WireCodec.String()); err != nil {
		return fmt.Errorf("%w: wire codec %d", ErrConfig, int(c.WireCodec))
	}
	if c.Overlap {
		if c.Mode != ModeMenos {
			return fmt.Errorf("%w: overlap requires Menos mode", ErrConfig)
		}
		if c.Policy != PolicyOnDemand {
			return fmt.Errorf("%w: overlap requires the on-demand policy (got %v)", ErrConfig, c.Policy)
		}
		if c.Autoscale != nil {
			return fmt.Errorf("%w: overlap requires a static fleet", ErrConfig)
		}
		if c.Batch != nil && c.Batch.Enabled() {
			return fmt.Errorf("%w: overlap and batched serving are mutually exclusive", ErrConfig)
		}
	}
	for i, cl := range c.Clients {
		if cl.ID == "" {
			return fmt.Errorf("%w: client %d has no id", ErrConfig, i)
		}
		if err := cl.Workload.Validate(); err != nil {
			return fmt.Errorf("%w: client %q: %v", ErrConfig, cl.ID, err)
		}
		if cl.Workload.Model.Name != c.Clients[0].Workload.Model.Name {
			return fmt.Errorf("%w: all clients must share one base model (got %q and %q)",
				ErrConfig, c.Clients[0].Workload.Model.Name, cl.Workload.Model.Name)
		}
	}
	return nil
}

// ClientResult is one client's measured breakdown.
type ClientResult struct {
	ID        string
	Breakdown *trace.Breakdown
}

// Result aggregates a simulation run.
type Result struct {
	Mode    Mode
	Clients []ClientResult
	// Aggregate merges all clients.
	Aggregate *trace.Breakdown
	// PersistentBytes is GPU memory held between iterations
	// (Fig. 5's comparison basis).
	PersistentBytes int64
	// PeakBytes is the device-set high-water mark.
	PeakBytes int64
	// SchedStats reports Menos scheduler activity (zero for vanilla).
	SchedStats sched.Stats
	// Rejected counts admission-control sheds (requests that backed
	// off and resubmitted); zero unless Config.SLO is enabled.
	Rejected int64
	// Admission aggregates admission-controller activity across the
	// simulated servers (zero value unless Config.SLO is enabled).
	Admission sched.AdmissionStats
	// Waits breaks scheduling time down by request kind; the paper
	// observes forwards essentially never wait while backwards queue.
	Waits WaitStats
	// MemSamples traces transient scheduled memory over virtual time
	// (Menos mode): one sample per allocation transition. This is the
	// data behind the paper's Fig. 3 usage patterns.
	MemSamples []MemSample
	// OverlapHidden is the total virtual time hidden by comm/compute
	// pipelining, summed over clients and iterations: each iteration's
	// serial cost (comm + comp + sched) minus its wall time. Zero
	// unless Config.Overlap.
	OverlapHidden time.Duration
	// SimulatedTime is the virtual time of the full run.
	SimulatedTime time.Duration
	// Fleet reports the fleet control plane's activity (Menos mode;
	// zero value for vanilla).
	Fleet FleetStats
}

// FleetStats summarises the fleet control plane's run: which placement
// policy decided, how the server count evolved, and how much client
// movement the autoscaler caused.
type FleetStats struct {
	Policy       string
	StartServers int
	FinalServers int
	PeakServers  int
	Placements   int64
	Migrations   int64
	ScaleEvents  int64
	// ImbalanceRatio is max/mean resident clients per active server at
	// the end of the run (1.0 is perfectly balanced; 0 when unused).
	ImbalanceRatio float64
}

// MemSample is one point of the transient-memory timeline.
type MemSample struct {
	At    time.Duration
	Bytes int64
}

// PeakTransientBytes returns the highest sampled transient allocation.
func (r *Result) PeakTransientBytes() int64 {
	var peak int64
	for _, s := range r.MemSamples {
		if s.Bytes > peak {
			peak = s.Bytes
		}
	}
	return peak
}

// TimeAvgTransientBytes returns the time-weighted mean transient
// allocation over the run (samples are step functions between
// transitions).
func (r *Result) TimeAvgTransientBytes() int64 {
	if len(r.MemSamples) == 0 || r.SimulatedTime == 0 {
		return 0
	}
	var weighted float64
	for i, s := range r.MemSamples {
		end := r.SimulatedTime
		if i+1 < len(r.MemSamples) {
			end = r.MemSamples[i+1].At
		}
		weighted += float64(s.Bytes) * float64(end-s.At)
	}
	return int64(weighted / float64(r.SimulatedTime))
}

// DutyCycle returns time-avg / peak transient memory: the fraction of
// the run the GPU's transient memory is actually in use. The paper's
// Fig. 3(d) point is that on-demand allocation drives this far below
// the memory-preserving policies.
func (r *Result) DutyCycle() float64 {
	peak := r.PeakTransientBytes()
	if peak == 0 {
		return 0
	}
	return float64(r.TimeAvgTransientBytes()) / float64(peak)
}

// WaitStats aggregates grant-wait time per request kind.
type WaitStats struct {
	ForwardTotal  time.Duration
	BackwardTotal time.Duration
	Forwards      int
	Backwards     int
}

// AvgIterationTime returns the mean per-client iteration time,
// matching the Fig. 6 metric.
func (r *Result) AvgIterationTime() time.Duration { return r.Aggregate.AvgTotal() }

// Run executes the simulation to completion.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch cfg.Mode {
	case ModeMenos:
		return runMenos(cfg)
	default:
		return runVanilla(cfg)
	}
}

// HomogeneousClients builds n identical client specs, matching the
// paper's evaluation setup where all clients share one configuration.
func HomogeneousClients(n int, w memmodel.Workload, platform costmodel.Perf) []ClientSpec {
	clients := make([]ClientSpec, n)
	for i := range clients {
		clients[i] = ClientSpec{
			ID:       fmt.Sprintf("client-%d", i+1),
			Workload: w,
			Platform: platform,
		}
	}
	return clients
}

// clientPhases splits the per-iteration client-side compute into the
// three segments of the loop: before the activation upload, between
// receiving x_s and sending g_c, and after receiving g_s.
func clientPhases(total time.Duration) (pre, mid, post time.Duration) {
	pre = time.Duration(0.3 * float64(total))
	mid = time.Duration(0.5 * float64(total))
	post = total - pre - mid
	return pre, mid, post
}
