// Package client implements the client side of split fine-tuning
// (§2.2): it holds the input and output sections of the model, runs
// the four-step loop against a Menos server over any net.Conn, and
// optimizes the client-side adapter parameters (φ_i) locally.
//
// The client builds its model sections from the same weight seed the
// model owner used for the server's shared store — the functional
// equivalent of the owner distributing f_i and f_o to the client while
// keeping f_s private.
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"menos/internal/adapter"
	"menos/internal/checkpoint"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/split"
	"menos/internal/tensor"
	"menos/internal/trace"
)

// Errors reported by the client.
var (
	ErrRejected = errors.New("client: server rejected handshake")
	ErrRemote   = errors.New("client: server reported an error")
	// ErrOverloaded marks a transient, retryable rejection: the server's
	// admission controller is shedding load (docs/ADMISSION.md). The
	// concrete error is a *RetryableError carrying the backoff hint.
	ErrOverloaded = errors.New("client: server overloaded")
)

// RetryableError is a transient server-side rejection. The session (or
// dial attempt) may be retried after RetryAfter. It unwraps to
// ErrOverloaded so callers can branch with errors.Is.
type RetryableError struct {
	// RetryAfter is the server's backoff hint (0 when the server did
	// not provide one).
	RetryAfter time.Duration
	// Reason is the server's human-readable explanation.
	Reason string
}

func (e *RetryableError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("client: server overloaded (retry after %v): %s", e.RetryAfter, e.Reason)
	}
	return "client: server overloaded: " + e.Reason
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *RetryableError) Unwrap() error { return ErrOverloaded }

// RetryAfter extracts the backoff hint from a retryable error chain.
// It reports false for non-retryable errors.
func RetryAfter(err error) (time.Duration, bool) {
	var re *RetryableError
	if errors.As(err, &re) {
		return re.RetryAfter, true
	}
	return 0, false
}

// Config describes one client's fine-tuning session.
type Config struct {
	ClientID string
	// Model must name/shape the same base model the server hosts.
	Model model.Config
	// WeightSeed is the model owner's initialization seed; it must
	// match the server store's seed for the sections to line up.
	WeightSeed uint64
	// WeightsFile optionally loads the model owner's distributed base
	// weights (checkpoint.SaveModelFile), overriding the seed-derived
	// initialization. It must hold the same weights the server serves.
	WeightsFile string
	// Cut is the split layer (client keeps blocks [0, Cut)).
	Cut int
	// Adapter configures fine-tuning; applied to the client-side
	// blocks locally and reported to the server for φ_s.
	Adapter adapter.Spec
	// AdapterSeed seeds both the local and the server-side adapter
	// initialization.
	AdapterSeed uint64
	// LR is the optimizer learning rate (client and server side).
	LR float64
	// Optimizer is "adam" (default) or "sgd".
	Optimizer string
	Batch     int
	Seq       int
	// Metrics, when set, records per-iteration counters and comm/comp
	// histograms under the menos_client_* names. Nil disables them.
	Metrics *obs.Registry
	// Tracer, when set, records client-side spans (local compute and
	// server round-trips) on the tracer's own clock, groups each
	// iteration's spans under a deterministic trace ID
	// (obs.IterTraceID), and offers trace-context propagation
	// (split.FeatureTraceContext) at handshake so the server's spans
	// share those IDs. Nil disables all of it.
	Tracer *obs.Tracer
	// NoTraceContext suppresses the trace-context offer even when
	// Tracer is set: the handshake then stays a plain version-1 frame.
	// Dial's compatibility fallback sets this when a legacy server
	// hangs up on the extended hello.
	NoTraceContext bool
	// Migrate offers split.FeatureMigration at handshake: the server
	// may answer a forward with a redirect to another server, and the
	// client follows it transparently mid-run — redial, resume the
	// session from the control plane's snapshot, replay the displaced
	// forward. The iteration in flight is not lost and the caller only
	// observes a longer round-trip. It costs nothing else: StepPipelined
	// keeps overlapping and follows a redirect from inside a group.
	Migrate bool
	// OnMigrate, when set, is called after each completed migration
	// with the new server's address (telemetry/test hook).
	OnMigrate func(target string)
	// WireCodec compresses activation/gradient payloads on the wire
	// (docs/WIRE.md). CodecFP32 (the zero value) disables compression
	// and keeps every frame byte-identical to a pre-compression client.
	// Any other codec offers split.FeatureActivationCompression at
	// handshake; payloads are quantized only if the server acks it, so
	// a legacy server transparently gets plain fp32 frames. Each peer
	// compresses what it sends with its own configured codec — the
	// feature bit negotiates the capability, the Packed header carries
	// the codec per payload.
	WireCodec quant.Codec
}

func (c *Config) applyDefaults() {
	if c.Cut == 0 {
		c.Cut = model.DefaultCut
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Optimizer == "" {
		c.Optimizer = "adam"
	}
}

// StepResult reports one fine-tuning iteration.
type StepResult struct {
	Loss       float64
	Perplexity float64
	CommTime   time.Duration
	CompTime   time.Duration
}

// Client is a connected split fine-tuning client.
type Client struct {
	cfg  Config
	conn net.Conn

	local     *model.Transformer
	input     *model.InputSection
	output    *model.OutputSection
	adapter   adapter.Adapter
	params    []nn.Param
	optimizer nn.Optimizer

	iter      int
	breakdown trace.Breakdown
	demands   split.HelloAck
	// traceOK reports that the server acked FeatureTraceContext:
	// requests may carry trace IDs and responses echo them.
	traceOK bool
	// migrateOK reports that the server acked FeatureMigration.
	migrateOK bool
	// payload packs outgoing and unpacks incoming activation/gradient
	// payloads. Its Negotiated bit reports that the server acked
	// FeatureActivationCompression: outgoing payloads may be quantized
	// with cfg.WireCodec and incoming payloads may arrive packed.
	payload split.PayloadCodec
	// resumeToken rides the next handshake's Hello (nonzero only
	// during a migration redial).
	resumeToken uint64
	// migrations counts completed mid-run server moves.
	migrations int

	m clientMetrics
}

// clientMetrics are the client plane's telemetry handles; the zero
// value (nil handles) is valid and free. The labeled handles share
// metric names with the unlabeled aggregates ({client="..."} series
// under the same family), resolved once at construction so the hot
// path stays a plain atomic observe.
type clientMetrics struct {
	iterations *obs.Counter
	comm       *obs.Histogram
	comp       *obs.Histogram

	iterationsBy *obs.Counter
	commBy       *obs.Histogram
	compBy       *obs.Histogram

	// overlapHidden is the per-microbatch round-trip time hidden behind
	// compute by pipelining (docs/WIRE.md). The rest of the wire
	// transport plane's handles live on Client.payload.
	overlapHidden *obs.Histogram
}

// New builds the client's model sections and performs the handshake
// over conn. The caller owns conn's lifetime until Close.
func New(conn net.Conn, cfg Config) (*Client, error) {
	cfg.applyDefaults()
	if cfg.ClientID == "" {
		return nil, errors.New("client: missing client id")
	}
	if cfg.Batch <= 0 || cfg.Seq <= 0 {
		return nil, fmt.Errorf("client: bad geometry batch=%d seq=%d", cfg.Batch, cfg.Seq)
	}
	m, err := model.New(tensor.NewRNG(cfg.WeightSeed), cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("client: build model sections: %w", err)
	}
	if cfg.WeightsFile != "" {
		if err := checkpoint.LoadModelFile(cfg.WeightsFile, m); err != nil {
			return nil, fmt.Errorf("client: load weights: %w", err)
		}
	}
	m.SetFrozenBase(true)
	input, _, output, err := m.Split(cfg.Cut)
	if err != nil {
		return nil, fmt.Errorf("client: split: %w", err)
	}
	// Client-side adapter over the input blocks (φ_i). The adapter
	// seed is offset so the client and server streams differ but are
	// both reproducible from cfg.AdapterSeed.
	ad, err := cfg.Adapter.Inject(tensor.NewRNG(cfg.AdapterSeed^AdapterSalt),
		m.Blocks[:cfg.Cut], cfg.Model.Dim)
	if err != nil {
		return nil, fmt.Errorf("client: attach adapter: %w", err)
	}

	c := &Client{
		cfg:     cfg,
		conn:    conn,
		local:   m,
		input:   input,
		output:  output,
		adapter: ad,
		params:  ad.Params(),
		payload: split.PayloadCodec{Codec: cfg.WireCodec},
	}
	switch cfg.Optimizer {
	case "adam":
		c.optimizer = nn.NewAdam(cfg.LR)
	case "sgd":
		c.optimizer = nn.NewSGD(cfg.LR, 0)
	default:
		return nil, fmt.Errorf("client: unknown optimizer %q", cfg.Optimizer)
	}
	if cfg.Metrics != nil {
		c.m = clientMetrics{
			iterations: cfg.Metrics.Counter(obs.MetricClientIterations, "client fine-tuning iterations"),
			comm:       cfg.Metrics.Histogram(obs.MetricClientCommSeconds, obs.DurationBuckets(), "server round-trip time per iteration"),
			comp:       cfg.Metrics.Histogram(obs.MetricClientCompSeconds, obs.DurationBuckets(), "local compute time per iteration"),

			iterationsBy: cfg.Metrics.CounterVec(obs.MetricClientIterations, "client").With(cfg.ClientID),
			commBy:       cfg.Metrics.HistogramVec(obs.MetricClientCommSeconds, "client", obs.DurationBuckets()).With(cfg.ClientID),
			compBy:       cfg.Metrics.HistogramVec(obs.MetricClientCompSeconds, "client", obs.DurationBuckets()).With(cfg.ClientID),

			overlapHidden: cfg.Metrics.Histogram(obs.MetricOverlapHiddenSeconds, obs.DurationBuckets(), "round-trip time hidden behind compute by pipelined stepping"),
		}
		c.payload.Compressed = cfg.Metrics.Counter(obs.MetricWireCompressedBytes, "on-wire bytes of compressed activation/gradient payloads sent")
		c.payload.Raw = cfg.Metrics.Counter(obs.MetricWireRawBytes, "fp32 bytes the compressed payloads replaced")
		c.payload.Seconds = cfg.Metrics.Histogram(obs.MetricWireCodecSeconds, obs.DurationBuckets(), "time quantizing/dequantizing wire payloads")
	}

	if err := c.handshake(); err != nil {
		return nil, err
	}
	return c, nil
}

// AdapterSalt decorrelates the client-side adapter RNG stream
// from the server-side one.
const AdapterSalt = 0x5f3759df

// Dial connects to a Menos server over TCP and handshakes. When the
// configuration offers trace context and the handshake dies on a
// transport error — the signature of a version-1 server rejecting the
// extended hello and hanging up — Dial redials once with the offer
// withdrawn, so a new client still interoperates with an old server.
func Dial(addr string, cfg Config) (*Client, error) {
	c, err := dialOnce(addr, cfg)
	offeredExt := (cfg.Tracer != nil && !cfg.NoTraceContext) || cfg.Migrate ||
		cfg.WireCodec != quant.CodecFP32
	if err == nil || !offeredExt {
		return c, err
	}
	// Real rejections (config, capacity, overload) come back as
	// protocol messages, not transport failures; don't mask them.
	if errors.Is(err, ErrRejected) || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrRemote) {
		return nil, err
	}
	cfg.NoTraceContext = true
	cfg.Migrate = false
	cfg.WireCodec = quant.CodecFP32
	return dialOnce(addr, cfg)
}

func dialOnce(addr string, cfg Config) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c, err := New(conn, cfg)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) handshake() error {
	hello := &split.Hello{
		ClientID:    c.cfg.ClientID,
		ModelName:   c.cfg.Model.Name,
		Cut:         c.cfg.Cut,
		Adapter:     c.cfg.Adapter,
		Optimizer:   split.OptimizerConfig{Kind: c.cfg.Optimizer, LR: c.cfg.LR},
		Batch:       c.cfg.Batch,
		Seq:         c.cfg.Seq,
		AdapterSeed: c.cfg.AdapterSeed,
	}
	if c.cfg.Tracer != nil && !c.cfg.NoTraceContext {
		hello.Features = split.FeatureTraceContext
	}
	if c.cfg.Migrate {
		hello.Features |= split.FeatureMigration
	}
	if c.cfg.WireCodec != quant.CodecFP32 {
		hello.Features |= split.FeatureActivationCompression
	}
	hello.ResumeToken = c.resumeToken
	if err := split.WriteMessage(c.conn, hello); err != nil {
		return fmt.Errorf("client: send hello: %w", err)
	}
	msg, err := split.ReadMessage(c.conn)
	if err != nil {
		return fmt.Errorf("client: read hello ack: %w", err)
	}
	ack, ok := msg.(*split.HelloAck)
	if !ok {
		return fmt.Errorf("client: expected hello ack, got %v", msg.MsgType())
	}
	if !ack.OK {
		if ack.Retryable {
			return &RetryableError{
				RetryAfter: time.Duration(ack.RetryAfterMs) * time.Millisecond,
				Reason:     ack.Reason,
			}
		}
		return fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	c.demands = *ack
	c.traceOK = ack.Features&split.FeatureTraceContext != 0
	c.migrateOK = ack.Features&split.FeatureMigration != 0
	c.payload.Negotiated = ack.Features&split.FeatureActivationCompression != 0
	return nil
}

// CompressionNegotiated reports whether the server accepted compressed
// activation payloads at handshake.
func (c *Client) CompressionNegotiated() bool { return c.payload.Negotiated }

// TraceNegotiated reports whether the server accepted trace-context
// propagation at handshake.
func (c *Client) TraceNegotiated() bool { return c.traceOK }

// Demands returns the server-profiled memory requirements for this
// client.
func (c *Client) Demands() (forward, backward int64) {
	return c.demands.ForwardBytes, c.demands.BackwardBytes
}

// Step runs one full split fine-tuning iteration over the batch
// (ids, targets), each of length Batch×Seq: forward, backward, and an
// optimizer step on both adapter halves.
func (c *Client) Step(ids, targets []int) (StepResult, error) {
	return c.MicroStep(ids, targets, true)
}

// MicroStep runs one forward/backward and accumulates gradients on
// both sides of the split; the optimizer steps (client- and
// server-side) happen only when apply is true. This implements
// gradient accumulation: k-1 calls with apply=false followed by one
// with apply=true emulate a k× larger batch within the memory budget
// of one micro-batch.
func (c *Client) MicroStep(ids, targets []int, apply bool) (StepResult, error) {
	results, err := c.run([]MicroBatch{{IDs: ids, Targets: targets}}, apply)
	if err != nil {
		return StepResult{}, err
	}
	return results[0], nil
}

// wireTrace gates a trace ID for the wire: zero (and therefore absent
// from the frame) unless the server negotiated trace context.
func (c *Client) wireTrace(tid uint64) uint64 {
	if !c.traceOK {
		return 0
	}
	return tid
}

// MicroBatch is one gradient-accumulation slice for StepPipelined;
// IDs and Targets each hold Batch×Seq tokens.
type MicroBatch struct {
	IDs     []int
	Targets []int
}

// pendingMicro is the in-flight tail of the pipeline: a microbatch
// whose BackwardReq has been written but whose response has not been
// read yet.
type pendingMicro struct {
	iter    int
	tid     uint64
	inCache *model.InputCache
	span    *obs.SpanHandle
	res     StepResult
	// sent is when the BackwardReq finished writing; everything the
	// client computes between then and the blocking response read is
	// round-trip time hidden by the pipeline.
	sent time.Time
}

// StepPipelined runs the microbatches as one gradient-accumulation
// group (equivalent to len-1 MicroStep(apply=false) calls followed by
// one with apply=true) with double-buffered comm/compute overlap: the
// backward upload of microbatch i streams — and the server grinds
// through it — while the client computes and uploads microbatch i+1's
// forward. Only then is i's backward response collected. The server
// processes a connection's requests strictly in order, so the compute
// graph is untouched: at fp32 the results are bit-identical to the
// MicroStep loop, just faster on a slow link. Step and MicroStep are
// this same loop over a single microbatch.
//
// Reordering note: microbatch i+1's input forward runs before
// microbatch i's input backward. Forward touches no gradient state and
// the adapter parameters only change at the final apply, so the
// numbers cannot differ — backward order itself stays i, i+1, ....
//
// A live-migration redirect (Config.Migrate) is followed mid-group:
// the server only redirects at a ForwardReq boundary, and the loop
// reads that forward's response only after the previous microbatch's
// backward has been drained, so nothing but the displaced forward is
// in flight and replaying it on the target loses no work.
func (c *Client) StepPipelined(batches []MicroBatch) ([]StepResult, error) {
	if len(batches) == 0 {
		return nil, errors.New("client: pipelined step needs at least one microbatch")
	}
	return c.run(batches, true)
}

// run is the client's one iteration engine (Algorithm 1's client half):
// the microbatches form a gradient-accumulation group whose last member
// carries apply. With more than one microbatch the schedule is the
// depth-2 pipeline documented on StepPipelined; with exactly one there
// is nothing to overlap and it degenerates to the plain four-step loop.
func (c *Client) run(batches []MicroBatch, apply bool) ([]StepResult, error) {
	for i, mb := range batches {
		if len(mb.IDs) != c.cfg.Batch*c.cfg.Seq || len(mb.Targets) != len(mb.IDs) {
			return nil, fmt.Errorf("client: microbatch %d is %d ids / %d targets, want %d",
				i, len(mb.IDs), len(mb.Targets), c.cfg.Batch*c.cfg.Seq)
		}
	}
	results := make([]StepResult, 0, len(batches))

	// finish drains a microbatch whose backward is on the wire: read the
	// response, run the input-section backward (and, for the applying
	// microbatch, the optimizer step), and account the iteration.
	finish := func(p *pendingMicro, optimize bool) error {
		sp := c.cfg.Tracer.BeginT(c.cfg.ClientID, "backward-rtt", "comm", p.tid)
		t0 := time.Now()
		gs, err := c.expectBackwardResp(p.iter)
		if err != nil {
			return err
		}
		p.res.CommTime += time.Since(t0)
		sp.End()

		sp = c.cfg.Tracer.BeginT(c.cfg.ClientID, "input-backward", "compute", p.tid)
		t0 = time.Now()
		if err := c.input.Backward(p.inCache, gs); err != nil {
			return fmt.Errorf("client: input backward: %w", err)
		}
		if optimize {
			if err := c.optimizer.Step(c.params); err != nil {
				return fmt.Errorf("client: optimizer: %w", err)
			}
			nn.ZeroGrads(c.params)
		}
		p.res.CompTime += time.Since(t0)
		sp.End()
		p.span.End()

		c.breakdown.Add(p.res.CommTime, p.res.CompTime, 0)
		c.m.iterations.Inc()
		c.m.comm.ObserveExemplar(p.res.CommTime.Seconds(), p.tid)
		c.m.comp.ObserveExemplar(p.res.CompTime.Seconds(), p.tid)
		c.m.iterationsBy.Inc()
		c.m.commBy.Observe(p.res.CommTime.Seconds())
		c.m.compBy.Observe(p.res.CompTime.Seconds())
		results = append(results, p.res)
		return nil
	}

	var pending *pendingMicro
	for i, mb := range batches {
		iter := c.iter
		c.iter++
		// Every iteration gets a deterministic trace ID; when the server
		// negotiated trace context it rides the wire, so both processes'
		// span buffers share it and a merged Chrome trace lines up.
		var tid uint64
		if c.cfg.Tracer != nil {
			tid = obs.IterTraceID(c.cfg.ClientID, iter)
		}
		iterSpan := c.cfg.Tracer.BeginT(c.cfg.ClientID, "iteration", "iter", tid)
		var res StepResult

		// Step 1 (client): input section forward. The previous
		// microbatch's backward, if any, is in flight on the server
		// while this runs.
		sp := c.cfg.Tracer.BeginT(c.cfg.ClientID, "input-forward", "compute", tid)
		t0 := time.Now()
		xc, inCache, err := c.input.Forward(mb.IDs, c.cfg.Batch, c.cfg.Seq, true)
		if err != nil {
			return results, fmt.Errorf("client: input forward: %w", err)
		}
		res.CompTime += time.Since(t0)
		sp.End()

		// Steps 1-2 (server): send x_c, receive x_s.
		plain, packed, err := c.payload.Pack(xc)
		if err != nil {
			return results, fmt.Errorf("client: %w", err)
		}
		req := &split.ForwardReq{
			Iter: iter, Batch: c.cfg.Batch, Seq: c.cfg.Seq,
			Activations: plain, Packed: packed, TraceID: c.wireTrace(tid),
		}
		t0 = time.Now()
		if err := split.WriteMessage(c.conn, req); err != nil {
			return results, fmt.Errorf("client: send forward: %w", err)
		}
		res.CommTime += time.Since(t0)

		// Drain the previous microbatch while our forward request is on
		// the wire (and queued behind its backward on the server). Hidden
		// time is observed only here, where another microbatch really
		// was in flight: its backward round trip overlapped our input
		// forward, and our forward round trip overlaps its drain.
		if pending != nil {
			fwdSent := time.Now()
			c.m.overlapHidden.Observe(fwdSent.Sub(pending.sent).Seconds())
			if err := finish(pending, false); err != nil {
				return results, err
			}
			pending = nil
			c.m.overlapHidden.Observe(time.Since(fwdSent).Seconds())
		}

		sp = c.cfg.Tracer.BeginT(c.cfg.ClientID, "forward-rtt", "comm", tid)
		t0 = time.Now()
		xs, err := c.awaitForward(req)
		if err != nil {
			return results, err
		}
		res.CommTime += time.Since(t0)
		sp.End()

		// Client: output section forward, loss, output backward.
		sp = c.cfg.Tracer.BeginT(c.cfg.ClientID, "output-loss", "compute", tid)
		t0 = time.Now()
		logits, outCache, err := c.output.Forward(xs, true)
		if err != nil {
			return results, fmt.Errorf("client: output forward: %w", err)
		}
		loss, dlogits, err := nn.CrossEntropy(logits, mb.Targets)
		if err != nil {
			return results, fmt.Errorf("client: loss: %w", err)
		}
		gc, err := c.output.Backward(outCache, dlogits)
		if err != nil {
			return results, fmt.Errorf("client: output backward: %w", err)
		}
		res.CompTime += time.Since(t0)
		sp.End()
		res.Loss = loss
		res.Perplexity = nn.Perplexity(loss)

		// Steps 3-4 (server): send g_c; g_s is collected by finish, after
		// the next microbatch's forward has been computed and sent.
		plain, packed, err = c.payload.Pack(gc)
		if err != nil {
			return results, fmt.Errorf("client: %w", err)
		}
		t0 = time.Now()
		if err := split.WriteMessage(c.conn, &split.BackwardReq{
			Iter: iter, Apply: apply && i == len(batches)-1,
			Gradients: plain, Packed: packed, TraceID: c.wireTrace(tid),
		}); err != nil {
			return results, fmt.Errorf("client: send backward: %w", err)
		}
		res.CommTime += time.Since(t0)
		pending = &pendingMicro{
			iter: iter, tid: tid, inCache: inCache, span: iterSpan,
			res: res, sent: time.Now(),
		}
	}
	// The group's optimizer step rides the final microbatch's drain.
	return results, finish(pending, apply)
}

// Evaluate computes the loss over a batch without updating anything.
// It costs one forward round-trip.
func (c *Client) Evaluate(ids, targets []int) (float64, error) {
	if len(ids) != c.cfg.Batch*c.cfg.Seq || len(targets) != len(ids) {
		return 0, fmt.Errorf("client: batch is %d ids, want %d", len(ids), c.cfg.Batch*c.cfg.Seq)
	}
	xc, _, err := c.input.Forward(ids, c.cfg.Batch, c.cfg.Seq, false)
	if err != nil {
		return 0, fmt.Errorf("client: input forward: %w", err)
	}
	iter := c.iter
	c.iter++
	xs, err := c.forwardRoundTrip(&split.ForwardReq{
		Iter: iter, Batch: c.cfg.Batch, Seq: c.cfg.Seq, Activations: xc,
	})
	if err != nil {
		return 0, err
	}
	logits, _, err := c.output.Forward(xs, false)
	if err != nil {
		return 0, fmt.Errorf("client: output forward: %w", err)
	}
	loss, _, err := nn.CrossEntropy(logits, targets)
	return loss, err
}

// forwardRoundTrip sends a ForwardReq and waits for its response.
func (c *Client) forwardRoundTrip(req *split.ForwardReq) (*tensor.Tensor, error) {
	if err := split.WriteMessage(c.conn, req); err != nil {
		return nil, fmt.Errorf("client: send forward: %w", err)
	}
	return c.awaitForward(req)
}

// awaitForward reads the response to a ForwardReq already on the wire,
// following at most one migration redirect: the redirect displaces the
// forward, so after redialing the target (which restores the session
// from the staged snapshot) the same request is replayed there and the
// iteration completes as if nothing moved.
func (c *Client) awaitForward(req *split.ForwardReq) (*tensor.Tensor, error) {
	xs, redirect, err := c.expectForwardResp(req.Iter)
	if err != nil || redirect == nil {
		return xs, err
	}
	if err := c.followMigration(redirect); err != nil {
		return nil, err
	}
	if err := split.WriteMessage(c.conn, req); err != nil {
		return nil, fmt.Errorf("client: replay forward: %w", err)
	}
	xs, redirect, err = c.expectForwardResp(req.Iter)
	if err == nil && redirect != nil {
		return nil, fmt.Errorf("client: second migration redirect in one iteration (to %s)", redirect.Target)
	}
	return xs, err
}

// followMigration redials the redirect's target and resumes the
// session there with the redirect token. On failure the original
// connection is already unusable (the source server has torn the
// session down), so the error is terminal for this client.
func (c *Client) followMigration(m *split.MigrateMsg) error {
	conn, err := net.Dial("tcp", m.Target)
	if err != nil {
		return fmt.Errorf("client: migration redial %s: %w", m.Target, err)
	}
	old := c.conn
	c.conn = conn
	c.resumeToken = m.Token
	err = c.handshake()
	c.resumeToken = 0
	if err != nil {
		c.conn = old
		_ = conn.Close()
		return fmt.Errorf("client: migration to %s: %w", m.Target, err)
	}
	_ = old.Close()
	c.migrations++
	if c.cfg.OnMigrate != nil {
		c.cfg.OnMigrate(m.Target)
	}
	return nil
}

// Migrations reports how many times this client has been moved to
// another server mid-run.
func (c *Client) Migrations() int { return c.migrations }

// MigrateNegotiated reports whether the server accepted the migration
// feature at handshake.
func (c *Client) MigrateNegotiated() bool { return c.migrateOK }

func (c *Client) expectForwardResp(iter int) (*tensor.Tensor, *split.MigrateMsg, error) {
	msg, err := split.ReadMessage(c.conn)
	if err != nil {
		return nil, nil, fmt.Errorf("client: read forward response: %w", err)
	}
	switch m := msg.(type) {
	case *split.MigrateMsg:
		if !c.migrateOK {
			return nil, nil, fmt.Errorf("client: unexpected migration redirect (feature not negotiated)")
		}
		if m.Target == "" || m.Token == 0 {
			return nil, nil, fmt.Errorf("client: malformed migration redirect (target %q)", m.Target)
		}
		return nil, m, nil
	case *split.ForwardResp:
		if m.Iter != iter || (m.Activations == nil && m.Packed == nil) {
			return nil, nil, fmt.Errorf("client: bad forward response (iter %d)", m.Iter)
		}
		xs, err := c.payload.Unpack(m.Activations, m.Packed)
		if err != nil {
			return nil, nil, fmt.Errorf("client: %w", err)
		}
		return xs, nil, nil
	case *split.ErrorMsg:
		if m.Retryable {
			return nil, nil, &RetryableError{
				RetryAfter: time.Duration(m.RetryAfterMs) * time.Millisecond,
				Reason:     m.Reason,
			}
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrRemote, m.Reason)
	default:
		return nil, nil, fmt.Errorf("client: unexpected %v", msg.MsgType())
	}
}

func (c *Client) expectBackwardResp(iter int) (*tensor.Tensor, error) {
	msg, err := split.ReadMessage(c.conn)
	if err != nil {
		return nil, fmt.Errorf("client: read backward response: %w", err)
	}
	switch m := msg.(type) {
	case *split.BackwardResp:
		if m.Iter != iter || (m.Gradients == nil && m.Packed == nil) {
			return nil, fmt.Errorf("client: bad backward response (iter %d)", m.Iter)
		}
		gs, err := c.payload.Unpack(m.Gradients, m.Packed)
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		return gs, nil
	case *split.ErrorMsg:
		if m.Retryable {
			return nil, &RetryableError{
				RetryAfter: time.Duration(m.RetryAfterMs) * time.Millisecond,
				Reason:     m.Reason,
			}
		}
		return nil, fmt.Errorf("%w: %s", ErrRemote, m.Reason)
	default:
		return nil, fmt.Errorf("client: unexpected %v", msg.MsgType())
	}
}

// SaveAdapter serializes the client-side adapter parameters (φ_i).
// The server-side adapter φ_s stays with the server, mirroring the
// deployment reality that neither party holds the full fine-tuned
// model.
func (c *Client) SaveAdapter(w io.Writer) error {
	return checkpoint.Save(w, c.params)
}

// LoadAdapter restores previously saved client-side adapter
// parameters. The client must have been built with the same model and
// adapter configuration.
func (c *Client) LoadAdapter(r io.Reader) error {
	return checkpoint.Load(r, c.params)
}

// Breakdown returns the client's accumulated comm/comp split.
func (c *Client) Breakdown() *trace.Breakdown { return &c.breakdown }

// AdapterParams exposes the client-side trainable parameters.
func (c *Client) AdapterParams() []nn.Param { return c.params }

// Close sends Bye and closes the connection.
func (c *Client) Close() error {
	_ = split.WriteMessage(c.conn, &split.Bye{})
	return c.conn.Close()
}
