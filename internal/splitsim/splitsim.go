// Package splitsim runs split fine-tuning workloads on the performance
// plane: clients, the WAN link, the server's GPUs, the Menos scheduler
// and the vanilla task-swapping baseline, all as deterministic
// discrete-event handlers. One simulated "154-second" iteration takes
// microseconds of wall time, which is what makes regenerating every
// timing figure of the paper practical.
package splitsim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
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
// sub-figure of Fig. 3; policyRows says what each one does.
type MemPolicy int

// Memory policies.
const (
	PolicyOnDemand      MemPolicy = iota + 1 // Fig. 3(d), the Menos default
	PolicyReleaseOnWait                      // Fig. 3(c)
	PolicyPreserve                           // Fig. 3(b)
	PolicyPersistAll                         // Fig. 3(a): vanilla-style, but with base sharing
)

// releasePoint is when a policy returns its activation memory.
type releasePoint int

const (
	releaseAtSessionEnd  releasePoint = iota // granted once; again after a migration
	releaseAfterBackward                     // held through the gradient wait
	releaseOnWait                            // on every wait for the client
)

// policyRows is Fig. 3 as data. Its four sub-figures differ in two
// decisions only: whether the first forward keeps grad, and when the
// activations are released. Each profile's two server phases are
// derived from its row (serverPhases); nothing else in the serving loop
// asks which policy runs.
var policyRows = [...]struct {
	name     string
	keepGrad bool // the first forward keeps grad
	release  releasePoint
}{
	PolicyPersistAll:    {"persist-all", true, releaseAtSessionEnd}, // 3(a)
	PolicyPreserve:      {"preserve", true, releaseAfterBackward},   // 3(b)
	PolicyReleaseOnWait: {"release-on-wait", true, releaseOnWait},   // 3(c)
	PolicyOnDemand:      {"on-demand", false, releaseOnWait},        // 3(d)
}

func (p MemPolicy) valid() bool { return p > 0 && int(p) < len(policyRows) }

// String returns the policy name.
func (p MemPolicy) String() string {
	if !p.valid() {
		return fmt.Sprintf("policy(%d)", int(p))
	}
	return policyRows[p].name
}

// serverPhase is one of a client's two server phases per iteration: the
// grant it takes, the compute it runs under it, and whether it returns
// the memory afterwards. newProfile derives both from the configured
// row, once per priced workload.
type serverPhase struct {
	kind    sched.RequestKind
	grant   int64    // bytes requested; 0 when the memory is held since the forward
	span    loopSpan // the compute span
	dur     time.Duration
	release bool
	// cycleDiv is the phase's share of Table 2's release/re-collect
	// cycle: its release costs 1/cycleDiv of it, and 0 costs nothing.
	cycleDiv int
}

// serverPhases derives the forward and backward phases of the
// configured policy's row for workload w.
func (c *Config) serverPhases(w memmodel.Workload, cost *costmodel.Model) [2]serverPhase {
	row := policyRows[c.Policy]
	fwdT, bwdT := cost.ForwardTime(w), cost.BackwardTime(w)
	fwd := serverPhase{kind: sched.KindForward, grant: w.NoGradForwardBytes(), span: spanForward,
		dur: cost.NoGradForwardTime(w), release: row.release == releaseOnWait}
	if row.keepGrad {
		fwd.grant, fwd.dur = w.ActivationBytes(), fwdT
	}
	bwd := serverPhase{kind: sched.KindBackward, span: spanBackward, dur: bwdT,
		release: row.release != releaseAtSessionEnd}
	if row.release == releaseOnWait {
		// Nothing survived the wait: a new grant, and the forward again.
		bwd.grant, bwd.dur = w.BackwardPeakBytes(), fwdT+bwdT
	}
	if !row.keepGrad {
		bwd.span = spanReforwardBackward
	}
	// The cycle is paid once per iteration, split evenly over the
	// releases that free grad-enabled activations.
	switch {
	case fwd.release && row.keepGrad:
		fwd.cycleDiv, bwd.cycleDiv = 2, 2
	case bwd.release:
		bwd.cycleDiv = 1
	}
	return [2]serverPhase{fwd, bwd}
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
	Mode Mode
	// Policy is the Fig. 3 row (policyRows) every client follows (Menos
	// only). The zero value means PolicyOnDemand.
	Policy   MemPolicy
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
	// category totals reconstruct the run's Breakdown exactly.
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
	if !c.Policy.valid() {
		return fmt.Errorf("%w: memory policy %d", ErrConfig, int(c.Policy))
	}
	if c.SchedPol < sched.PolicyFCFSBackfill || c.SchedPol > sched.PolicySmallestFirst {
		return fmt.Errorf("%w: scheduling policy %d", ErrConfig, int(c.SchedPol))
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

// Breakdown is the decomposition of the paper's Tables 1-3: the
// communication, computation and scheduling time of a run's iterations,
// summed. A client bills it only through clientLoop.bill, which records
// the matching span, so a traced run's span category totals are these
// totals.
type Breakdown struct {
	comm, comp, sched time.Duration
	iterations        int
}

// add bills d to the component of span category cat.
func (b *Breakdown) add(cat string, d time.Duration) {
	switch cat {
	case "comm":
		b.comm += d
	case "compute":
		b.comp += d
	case "sched":
		b.sched += d
	default:
		panic("splitsim: span category " + cat + " is no Breakdown component")
	}
}

// Iterations returns the number of completed iterations.
func (b Breakdown) Iterations() int { return b.iterations }

// Totals returns the component sums (not averages).
func (b Breakdown) Totals() (comm, comp, sched time.Duration) { return b.comm, b.comp, b.sched }

// AvgComm returns mean communication time per iteration.
func (b Breakdown) AvgComm() time.Duration { return b.avg(b.comm) }

// AvgComp returns mean computation time per iteration.
func (b Breakdown) AvgComp() time.Duration { return b.avg(b.comp) }

// AvgSched returns mean scheduling (queueing) time per iteration.
func (b Breakdown) AvgSched() time.Duration { return b.avg(b.sched) }

// AvgTotal returns mean total time per iteration.
func (b Breakdown) AvgTotal() time.Duration { return b.avg(b.total()) }

func (b Breakdown) total() time.Duration { return b.comm + b.comp + b.sched }

func (b Breakdown) avg(d time.Duration) time.Duration {
	if b.iterations == 0 {
		return 0
	}
	return d / time.Duration(b.iterations)
}

// aggregate sums the clients' breakdowns into the system view.
func aggregate(clients []ClientResult) Breakdown {
	var agg Breakdown
	for _, c := range clients {
		agg.comm += c.Breakdown.comm
		agg.comp += c.Breakdown.comp
		agg.sched += c.Breakdown.sched
		agg.iterations += c.Breakdown.iterations
	}
	return agg
}

// ClientResult is one client's measured breakdown.
type ClientResult struct {
	ID        string
	Breakdown Breakdown
}

// Result aggregates a simulation run.
type Result struct {
	Mode    Mode
	Clients []ClientResult
	// Aggregate sums all clients.
	Aggregate Breakdown
	// PersistentBytes is GPU memory held between iterations
	// (Fig. 5's comparison basis).
	PersistentBytes int64
	// PeakBytes is the device-set high-water mark. In Menos mode that is
	// PersistentBytes plus PeakTransientBytes(), the largest transient
	// allocation the run sampled.
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
	var ids arena
	for i := range clients {
		clients[i] = ClientSpec{
			ID:       ids.number("client-", i+1),
			Workload: w,
			Platform: platform,
		}
	}
	return clients
}

// arena builds strings back to back in one buffer. A strings.Builder
// only ever appends, so each string cut from it stays valid and a run's
// n IDs cost the buffer's few growths instead of n allocations.
type arena struct{ b strings.Builder }

// join returns prefix+s.
func (a *arena) join(prefix, s string) string {
	start := a.b.Len()
	a.b.WriteString(prefix)
	a.b.WriteString(s)
	return a.b.String()[start:]
}

// number returns prefix followed by n in decimal.
func (a *arena) number(prefix string, n int) string {
	start := a.b.Len()
	a.b.WriteString(prefix)
	var digits [20]byte
	a.b.Write(strconv.AppendInt(digits[:0], int64(n), 10))
	return a.b.String()[start:]
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

// clientLoop is what both modes' client schedules share: the client's
// Breakdown and the current iteration's trace ID, and the two timed
// operations every iteration is made of. Each hands the kernel advance,
// the schedule itself, which begins with land: the operation is billed
// as it lands, then the schedule takes its next step.
//
// tid is the same obs.IterTraceID(clientID, iter) a TCP client stamps on
// its wire requests, so simulated and real traces of one workload
// correlate by identical IDs.
type clientLoop struct {
	kernel *sim.Kernel
	link   *simnet.Link
	tracer *obs.Tracer
	// Menos mode only (nil handles are no-ops): the tenant ledger, and
	// the wire counters when a codec compresses the payloads.
	ledger                  *obs.Ledger
	wireCompressed, wireRaw *obs.Counter

	id                    string
	bd                    *Breakdown
	transfer, rawTransfer int64 // link payload on the wire, and in fp32

	tid uint64
	// The timed operation in flight, and whether it is one yet to land.
	// onServer says where its work lands, which is what the tenant ledger
	// bills: a server compute phase, or an upload (bytes the server
	// receives).
	op             loopSpan
	pending        opKind
	onServer       bool
	opStart, opDur time.Duration
	advance        func()
}

// loopSpan is the span of a client's timed operation, as its index in
// loopSpans: the operation in flight then holds a byte, not an
// obs.SpanKind's two strings, so that spend and xfer store no pointer
// into the client's record.
type loopSpan uint8

const (
	spanClientPre loopSpan = iota
	spanClientMid
	spanClientPost
	spanUploadXC
	spanDownloadXS
	spanUploadGC
	spanDownloadGS
	spanForward
	spanBackward
	spanReforwardBackward
	spanReleaseCycle
	spanOptimizer
)

var loopSpans = [...]obs.SpanKind{
	spanClientPre:         obs.SpanClientPre,
	spanClientMid:         obs.SpanClientMid,
	spanClientPost:        obs.SpanClientPost,
	spanUploadXC:          obs.SpanUploadXC,
	spanDownloadXS:        obs.SpanDownloadXS,
	spanUploadGC:          obs.SpanUploadGC,
	spanDownloadGS:        obs.SpanDownloadGS,
	spanForward:           obs.SpanForward,
	spanBackward:          obs.SpanBackward,
	spanReforwardBackward: obs.SpanReforwardBackward,
	spanReleaseCycle:      obs.SpanReleaseCycle,
	spanOptimizer:         obs.SpanOptimizer,
}

// opKind is the kind of timed operation a client has in flight.
type opKind int

const (
	opNone opKind = iota
	opCompute
	opTransfer
)

// initLoop binds the loop's one continuation, advance: the schedule.
func (l *clientLoop) initLoop(k *sim.Kernel, link *simnet.Link, tracer *obs.Tracer, id string, bd *Breakdown, transfer int64, advance func()) {
	l.kernel, l.link, l.tracer, l.id, l.bd = k, link, tracer, id, bd
	l.transfer, l.rawTransfer = transfer, transfer
	l.advance = advance
}

// land bills the timed operation that has just landed, if one is in
// flight. A schedule calls it first thing, every time it runs.
func (l *clientLoop) land() {
	switch l.pending {
	case opCompute:
		l.computeLanded()
	case opTransfer:
		l.transferLanded()
	}
	l.pending = opNone
}

// bill charges d, begun at start, to the Breakdown component of span's
// category and records span with the same virtual-time bounds. It is
// the only way a client's time is counted, so summing a run's spans by
// category reconstructs its Breakdown exactly (menos-bench -trace-out
// checks this).
func (l *clientLoop) bill(span obs.SpanKind, start, d time.Duration) {
	l.bd.add(span.Cat, d)
	l.tracer.RecordT(l.id, span, l.tid, start, d)
}

// compute spends d of virtual time in a server phase, and computeLocal
// on the client's own hardware, then continue.
func (l *clientLoop) compute(span loopSpan, d time.Duration)      { l.spend(span, true, d) }
func (l *clientLoop) computeLocal(span loopSpan, d time.Duration) { l.spend(span, false, d) }

func (l *clientLoop) spend(span loopSpan, onServer bool, d time.Duration) {
	l.op, l.pending, l.onServer, l.opStart, l.opDur = span, opCompute, onServer, l.kernel.Now(), d
	l.kernel.After(d, l.advance)
}

func (l *clientLoop) computeLanded() {
	l.bill(loopSpans[l.op], l.opStart, l.opDur)
	// Server phases bill the tenant's compute-seconds; the client-local
	// sections are not shared-server time.
	if l.onServer {
		l.ledger.AddCompute(l.id, l.opDur.Seconds())
	}
}

// upload and download move one split-boundary payload over the link,
// then continue.
func (l *clientLoop) upload(span loopSpan)   { l.xfer(span, true) }
func (l *clientLoop) download(span loopSpan) { l.xfer(span, false) }

func (l *clientLoop) xfer(span loopSpan, up bool) {
	l.op, l.pending, l.onServer, l.opStart = span, opTransfer, up, l.kernel.Now()
	l.opDur = l.link.Transfer(l.transfer, l.advance)
}

func (l *clientLoop) transferLanded() {
	l.bill(loopSpans[l.op], l.opStart, l.opDur)
	// Wire accounting from the server's viewpoint: an upload is bytes
	// the server received, a download bytes it sent.
	if l.onServer {
		l.ledger.AddWire(l.id, 0, l.transfer)
	} else {
		l.ledger.AddWire(l.id, l.transfer, 0)
	}
	l.wireCompressed.Add(l.transfer)
	l.wireRaw.Add(l.rawTransfer)
}
