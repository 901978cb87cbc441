// Package server implements the real (functional-plane) Menos server:
// it accepts split fine-tuning clients over any net.Listener, shares
// one base model across all of them through a share.Store, prices
// each client's memory demands from its Hello, and runs every forward and
// backward under the Algorithm-2 scheduler with on-demand memory
// allocation — Algorithm 1's serving loop, executing real tensor math.
// A forward's activations are a revocable grant: kept for the backward
// while nobody needs the memory, recomputed (Fig. 3(d)) when somebody did.
package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"menos/internal/batch"
	"menos/internal/checkpoint"
	"menos/internal/fleet"
	"menos/internal/gpu"
	"menos/internal/memmodel"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Config configures a Menos server.
type Config struct {
	// Store holds the shared base model (required).
	Store *share.Store
	// GPU is the simulated device whose budget the scheduler manages.
	// Defaults to a V100. Persistent components are charged to it on
	// startup and per client.
	GPU *gpu.Device
	// SLO, when enabled, activates adaptive admission control on the
	// scheduler (docs/ADMISSION.md): the sliding-window p99 grant wait
	// is held near SLO.TargetP99 by throttling backfill and, under
	// sustained overload, shedding requests with a retryable
	// protocol-level rejection. The zero value keeps the scheduler's
	// plain Algorithm-2 behaviour.
	SLO sched.SLO
	// Logger receives serving events; nil silences logging.
	Logger *log.Logger
	// Metrics, when set, instruments the server, its scheduler and its
	// GPU device against the registry (see docs/OBSERVABILITY.md for
	// the metric catalog). Nil disables metrics at zero cost.
	Metrics *obs.Registry
	// Tracer, when set, records per-iteration spans (admission, queue
	// wait, forward/backward compute, release) on a wall clock. Nil
	// disables tracing. When the client negotiates trace context
	// (split.FeatureTraceContext) the server parents these spans under
	// the client's iteration trace IDs.
	Tracer *obs.Tracer
	// Flight, when set, snapshots the recent trace window and metrics
	// to disk on overload anomalies: admission-state transitions,
	// sheds, and memory rejections. Nil disables the recorder.
	Flight *obs.FlightRecorder
	// Batch, when enabled (MaxSize > 1), coalesces compatible
	// forward/backward requests from concurrent LoRA clients into one
	// batched kernel invocation with per-row adapter dispatch
	// (docs/BATCHING.md). A request joins a batch only while another
	// request waits for memory; the batched executor then runs the
	// no-grad-forward / re-forward-backward protocol, and MaxHold bounds
	// how long a forming group waits. Otherwise the request is served
	// serially and may keep its activations. The zero value serves
	// every request serially.
	Batch sched.BatchPolicy
	// ServerID is this server's fleet identity, echoed in /loadz
	// (LoadSnapshot). A single-server deployment can leave it 0.
	ServerID int
	// TenantCap bounds per-client accounting cardinality: ledger
	// accounts and labeled metric series beyond it aggregate into the
	// "other" series. 0 means obs.DefaultVecCap.
	TenantCap int
	// WireCodec compresses activation/gradient payloads this server
	// sends (docs/WIRE.md). CodecFP32 (the zero value) disables the
	// feature entirely: split.FeatureActivationCompression is never
	// acked and every frame stays byte-identical to a pre-compression
	// server. Any other codec acks the feature when a client offers it;
	// each peer compresses what it sends with its own codec, and the
	// Packed header carries the codec per payload.
	WireCodec quant.Codec
}

// newClock builds a server's timebase: the wall clock, which a test
// replaces to step admission control and snapshot expiry by hand.
var newClock = obs.NewWallClock

// Server is a running Menos server.
type Server struct {
	cfg       Config
	store     *share.Store
	device    *gpu.Device
	scheduler *sched.Scheduler
	// clock is the server's telemetry timebase (wall time since
	// construction); /loadz timestamps read it.
	clock obs.Clock
	// ledger is the per-tenant accounting plane (nil when metrics are
	// disabled). The scheduler feeds it byte holdings and grant waits;
	// the serving loop feeds it compute, iterations and wire bytes.
	ledger *obs.Ledger
	// engine forms batched kernel invocations (nil when Config.Batch is
	// disabled); batchSeq names them for the scheduler.
	engine   *batch.Engine
	batchSeq atomic.Int64
	// payload is the template every session's payload codec is copied
	// from: the configured codec plus the wire transport plane's metric
	// handles (docs/WIRE.md) — bytes of compressed payloads this server
	// sent vs the fp32 bytes they replaced, and codec time.
	payload split.PayloadCodec

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	sessions  map[string]*session
	// pendingMig holds migration orders accepted by the admin plane,
	// keyed by client; the serving goroutine claims its order at the
	// next ForwardReq boundary.
	pendingMig map[string]fleet.MigrateOrder
	// staged holds session snapshots parked here by a source server
	// (POST /admin/prepare), keyed by resume token, until the migrated
	// client redials.
	staged map[uint64]*stagedSession
	closed bool
	// done is closed by Close: a request still waiting for memory then
	// leaves the scheduler's queue and fails.
	done chan struct{}
	wg   sync.WaitGroup

	m serverMetrics
}

// serverMetrics are the serving plane's telemetry handles. They always
// exist, in a private registry when Config.Metrics is nil, because
// Stats reads them.
type serverMetrics struct {
	admitted   *obs.Counter
	iterations *obs.Counter
	compute    *obs.Histogram
	schedWait  *obs.Histogram
	active     *obs.Gauge
	reforwards *obs.Counter
	// arenaRetained and arenaOutstanding mirror each session's arena
	// (session.arena).
	arenaRetained, arenaOutstanding *obs.GaugeVec
}

// New creates a server over the shared store. The store's base
// parameters are charged against the GPU budget immediately — the
// paper's "preloaded into the GPU memory in advance".
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: nil store")
	}
	if cfg.GPU == nil {
		cfg.GPU = gpu.NewDevice(gpu.V100(), cfg.Metrics)
	}
	if _, err := cfg.GPU.Alloc("base-model", cfg.Store.BaseParamBytes()); err != nil {
		return nil, fmt.Errorf("server: loading base model: %w", err)
	}
	s := &Server{
		cfg:        cfg,
		store:      cfg.Store,
		device:     cfg.GPU,
		scheduler:  sched.New(cfg.GPU.Available(), sched.PolicyFCFSBackfill),
		clock:      newClock(),
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
		sessions:   make(map[string]*session),
		pendingMig: make(map[string]fleet.MigrateOrder),
		staged:     make(map[uint64]*stagedSession),
		done:       make(chan struct{}),
		payload:    split.PayloadCodec{Codec: cfg.WireCodec},
	}
	if cfg.Metrics != nil {
		// Per-tenant accounting rides the server's clock; the scheduler
		// is the single source of byte-second holdings (grants and
		// persistent reservations), the serving loop adds compute,
		// iterations and wire bytes.
		s.ledger = obs.NewLedger(obs.LedgerConfig{Clock: s.clock, MaxClients: cfg.TenantCap, Metrics: cfg.Metrics})
	}
	w := sched.Wiring{Metrics: cfg.Metrics, Clock: s.clock, Ledger: s.ledger, SLO: cfg.SLO}
	if cfg.Flight != nil {
		// Snapshot on every admission-state change. TriggerAsync queues
		// off the scheduler mutex the hook runs under.
		w.AdmissionHook = func(from, to sched.AdmissionState) {
			cfg.Flight.TriggerAsync(obs.FlightReasonAdmission)
		}
	}
	if err := s.scheduler.Wire(w); err != nil {
		return nil, fmt.Errorf("server: scheduler: %w", err)
	}
	if cfg.Batch.Enabled() {
		engine, err := batch.New(batch.Config{
			Policy:   cfg.Batch,
			Exec:     s.execBatch,
			MaxBytes: s.scheduler.Schedulable,
			Metrics:  batch.NewMetrics(cfg.Metrics, s.ledger, cfg.Batch.MaxSize),
		})
		if err != nil {
			return nil, fmt.Errorf("server: batch engine: %w", err)
		}
		s.engine = engine
	} else if err := cfg.Batch.Validate(); err != nil {
		return nil, fmt.Errorf("server: batch policy: %w", err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.m = serverMetrics{
		admitted:   reg.Counter(obs.MetricServerAdmitted, "clients admitted at handshake"),
		iterations: reg.Counter(obs.MetricServerIterations, "fine-tuning iterations completed"),
		compute:    reg.Histogram(obs.MetricServerComputeSeconds, obs.DurationBuckets(), "server-side compute per request"),
		schedWait:  reg.Histogram(obs.MetricServerWaitSeconds, obs.DurationBuckets(), "scheduler grant wait per request"),
		active:     reg.Gauge(obs.MetricServerActiveClients, "clients currently connected and admitted"),
		reforwards: reg.Counter(obs.MetricServerReforwards, "serial backwards that recomputed the forward (no parked cache to claim)"),
		arenaRetained: reg.GaugeVec(obs.MetricServerArenaRetainedBytes, "client",
			"bytes the session's buffer arena retains on its free lists, as of its last served phase"),
		arenaOutstanding: reg.GaugeVec(obs.MetricServerArenaOutstandingBytes, "client",
			"bytes the session's buffer arena has handed out and not had back, as of its last served phase"),
	}
	if cfg.Metrics != nil {
		s.payload.Compressed = cfg.Metrics.Counter(obs.MetricWireCompressedBytes, "on-wire bytes of compressed activation/gradient payloads sent")
		s.payload.Raw = cfg.Metrics.Counter(obs.MetricWireRawBytes, "fp32 bytes the compressed payloads replaced")
		s.payload.Seconds = cfg.Metrics.Histogram(obs.MetricWireCodecSeconds, obs.DurationBuckets(), "time quantizing/dequantizing wire payloads")
	}
	return s, nil
}

// scratch is the shared base's buffer arena, which only the batched
// executor's stacked pass draws from; each session has its own
// (session.scratch).
func (s *Server) scratch() *tensor.Scratch { return s.store.Master().Scratch() }

// Scheduler exposes the scheduler for stats inspection.
func (s *Server) Scheduler() *sched.Scheduler { return s.scheduler }

// Device exposes the accounting device.
func (s *Server) Device() *gpu.Device { return s.device }

// Stats summarizes serving activity.
type Stats struct {
	ClientsServed int64
	Iterations    int64
	AvgSchedWait  time.Duration
	AvgCompute    time.Duration
	// Reforwards counts serial backwards that recomputed the forward; the
	// rest of the serial iterations reused the forward's parked cache.
	Reforwards int64
}

// Stats returns a snapshot, read from the serving plane's metric
// families: the numbers /metrics shows.
func (s *Server) Stats() Stats {
	st := Stats{
		ClientsServed: s.m.admitted.Value(),
		Iterations:    s.m.iterations.Value(),
		Reforwards:    s.m.reforwards.Value(),
	}
	if st.Iterations > 0 {
		perIter := func(h *obs.Histogram) time.Duration {
			return time.Duration(h.Sum() * float64(time.Second) / float64(st.Iterations))
		}
		st.AvgSchedWait = perIter(s.m.schedWait)
		st.AvgCompute = perIter(s.m.compute)
	}
	return st
}

// Serve accepts clients on l until Close. It always returns a non-nil
// error; after Close the error is ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting, closes live connections, and waits for
// serving goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	for l := range s.listeners {
		_ = l.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	// Flush forming batches before the scheduler dies: a pending group
	// still needs a (failing or succeeding) grant to release its
	// members' serving goroutines.
	if s.engine != nil {
		s.engine.Close()
	}
	s.scheduler.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// session is one client's serving state (a "serving process" S_i).
type session struct {
	id string
	// handle is the session's one record in the scheduler, enrolled at
	// the handshake: every scheduler call of the session goes through it.
	handle sched.Handle
	inst   *share.Instance
	// scratch is the instance's arena: the session's body and adapter
	// draw from it, its connection's framer decodes into it, and every
	// tensor a phase receives or sends goes back to it (a tensor the
	// batched executor drew from the shared base's arena goes back
	// there). It is dropped with the instance.
	scratch *tensor.Scratch
	// arena shows scratch on /metrics.
	arena     arenaGauges
	body      *model.BodySection
	params    []nn.Param
	optimizer *nn.Adam
	// mf and mb are Algorithm 2's per-operation demands, M_f and M_b,
	// priced from the Hello's workload at the handshake and fixed there.
	mf, mb int64
	batch  int
	seq    int
	// features is the negotiated extension set (the intersection of
	// the client's Hello offer and what this server accepts).
	features uint64
	// payload unpacks request payloads and packs response payloads with
	// the server's codec, gated on the negotiated compression bit.
	payload split.PayloadCodec
	// packed holds a packed response payload, reused response after
	// response.
	packed quant.Packed

	// cachedInput retains x_c between the first forward and the
	// backward re-forward ("we just need to cache the forward
	// activations for the re-forward computation, which is
	// negligible"). It was decoded into the session's arena and goes
	// back there after the backward, when the next forward replaces it,
	// or at teardown.
	cachedInput *tensor.Tensor
	cachedIter  int
	cachedBatch int
	cachedSeq   int

	// parked holds the forward's activation cache while its grant is
	// parked in the scheduler. The session goroutine is the only reader;
	// the scheduler's revoke hook only ever stores nil, and the buffers
	// then fall to the GC — never back to the scratch arena, where a
	// kernel could still be reading them.
	parked atomic.Pointer[model.BodyCache]
	// dropParked is that hook, built once per session: Park takes it on
	// every kept forward.
	dropParked func()
}

// handleConn runs one client's full lifecycle.
func (s *Server) handleConn(rawConn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, rawConn)
		s.mu.Unlock()
		_ = rawConn.Close()
	}()
	// All protocol IO goes through the counting wrapper so the ledger
	// can attribute wire bytes (handshake included) to the client.
	conn := &countingConn{Conn: rawConn}
	fr := split.NewFramer(conn, nil) // a Hello carries no tensor

	sess, err := s.handshake(fr)
	if err != nil {
		s.logf("handshake failed: %v", err)
		return
	}
	fr.SetScratch(sess.scratch)
	s.mu.Lock()
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	defer s.teardown(sess)
	defer s.flushWire(sess, conn)
	s.logf("client %q admitted (priced M_f=%d M_b=%d bytes)", sess.id, sess.mf, sess.mb)

	for {
		s.flushWire(sess, conn)
		sess.arena.publish(sess.scratch)
		msg, err := fr.ReadMessage()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("client %q: read: %v", sess.id, err)
			}
			if errors.Is(err, split.ErrRetired) {
				s.sendError(fr, err)
			}
			return
		}
		switch m := msg.(type) {
		case *split.ForwardReq:
			// A pending migration order executes here, at the clean
			// iteration boundary: the previous backward has been applied
			// and this forward has not been served, so the client can
			// replay it against the target without losing an iteration.
			if ord, ok := s.takePendingMigration(sess); ok {
				// The displaced ForwardReq's trace ID is the iteration
				// that will replay on the destination server, so tagging
				// the source-side handoff span with it stitches both
				// processes' spans under one IterTraceID in fleetd's
				// merged fleet trace.
				mig := s.cfg.Tracer.BeginT(sess.id, obs.SpanMigrateOut, m.TraceID)
				err := s.executeMigration(fr, sess, ord)
				mig.End()
				if err != nil {
					s.logf("client %q: migration to %s aborted: %v", sess.id, ord.TargetAddr, err)
					// Fall through: the session keeps serving here.
				} else {
					return
				}
			}
			err = s.serveForward(fr, sess, m)
		case *split.BackwardReq:
			err = s.serveBackward(fr, sess, m)
		case *split.Bye:
			s.logf("client %q: bye", sess.id)
			return
		default:
			s.sendError(fr, fmt.Errorf("unexpected message %v", msg.MsgType()))
			return
		}
		if err == nil {
			continue
		}
		var ov *sched.OverloadError
		if errors.As(err, &ov) {
			// Admission shed: transient, the session stays up and the
			// client retries after the hinted backoff.
			s.logf("client %q: %v shed (%v)", sess.id, msg.MsgType(), ov.RetryAfter)
			s.cfg.Flight.TriggerAsync(obs.FlightReasonShed)
			s.sendRetryable(fr, ov)
			continue
		}
		s.logf("client %q: %v: %v", sess.id, msg.MsgType(), err)
		s.sendError(fr, err)
		return
	}
}

// handshake admits a client: validates and prices the Hello, refuses a
// backward that could never be granted, enrolls the client and charges
// its persistent memory, builds the instance and attaches the adapter.
func (s *Server) handshake(fr *split.Framer) (_ *session, err error) {
	msg, err := fr.ReadMessage()
	if err != nil {
		return nil, fmt.Errorf("read hello: %w", err)
	}
	hello, ok := msg.(*split.Hello)
	if !ok {
		return nil, fmt.Errorf("expected hello, got %v", msg.MsgType())
	}
	admitSpan := s.cfg.Tracer.Begin(hello.ClientID, obs.SpanAdmit)
	// One unwind for every way the handshake can fail from here on: the
	// enrollment with its persistent reservation and the instance, once
	// taken, go back before the admission span ends and the refusal (if
	// any) reaches the client.
	var (
		handle  sched.Handle
		inst    *share.Instance
		refusal *split.HelloAck
	)
	defer func() {
		if err != nil {
			handle.Forget() // the zero handle, until enrolled, forgets nothing
			if inst != nil {
				_ = inst.Release()
			}
		}
		admitSpan.End()
		if refusal != nil {
			_ = fr.WriteMessage(refusal)
		}
	}()
	reject := func(reason string) (*session, error) {
		refusal = &split.HelloAck{OK: false, Reason: reason}
		return nil, fmt.Errorf("rejected %q: %s", hello.ClientID, reason)
	}
	if hello.ClientID == "" {
		return reject("missing client id")
	}
	if hello.ModelName != s.store.Config().Name {
		return reject(fmt.Sprintf("model %q not hosted (serving %q)", hello.ModelName, s.store.Config().Name))
	}
	// The Hello is a workload over the served model: validated and
	// priced once, before anything is built for it.
	w := memmodel.Workload{Model: s.store.Config(), Cut: hello.Cut, Adapter: hello.Adapter,
		Batch: hello.Batch, Seq: hello.Seq}
	if err := w.Validate(); err != nil {
		return reject(err.Error())
	}
	if k := hello.Optimizer.Kind; k != "" && k != "adam" {
		return reject(fmt.Sprintf("unknown optimizer %q", k))
	}
	lr := hello.Optimizer.LR
	if err := nn.ValidateLR(lr); err != nil {
		return reject(err.Error())
	}
	if lr == 0 {
		lr = 1e-3
	}

	// Under sustained overload the controller sheds new clients before
	// they are charged — a retryable rejection, unlike the hard
	// configuration rejections above.
	if s.scheduler.Load().Admission == sched.StateShedding {
		s.ledger.Shed(hello.ClientID)
		s.cfg.Flight.TriggerAsync(obs.FlightReasonShed)
		retry := s.cfg.SLO.TargetP99
		refusal = &split.HelloAck{
			OK:           false,
			Reason:       "server overloaded",
			Retryable:    true,
			RetryAfterMs: retry.Milliseconds(),
		}
		return nil, fmt.Errorf("shed %q: overloaded (retry after %v)", hello.ClientID, retry)
	}

	// Algorithm 2's demands are priced from the workload: §3.3 profiles
	// them with random inputs because its models are arbitrary, but here
	// the model families and adapter kinds are a closed set, so they are
	// a function of the configuration (DESIGN.md §8). Scheduler principle
	// 1: a backward that could never be granted beside the client's
	// persistent state is refused now, before anything is reserved or
	// built, rather than deadlocking the client later. Schedulable, not
	// Available: another tenant's grant in flight makes this client wait
	// its turn, it does not make the demand ungrantable.
	mf, mb, persist := w.NoGradForwardBytes(), w.BackwardPeakBytes(), w.PersistentClientBytes()
	if schedulable := s.scheduler.Schedulable() - persist; mb > schedulable {
		s.cfg.Flight.TriggerAsync(obs.FlightReasonOOM)
		return reject(fmt.Sprintf("backward demand %d exceeds schedulable memory %d", mb, schedulable))
	}

	// Enroll the client (a live session's ID is enrolled already) and
	// reserve its persistent footprint (adapter params, grads, Adam
	// moments, process context) for its lifetime, before it is built.
	if handle, err = s.scheduler.Enroll(hello.ClientID); err != nil {
		return reject(fmt.Sprintf("client %q already has a live session", hello.ClientID))
	}
	if err := handle.Reserve(persist); err != nil {
		return reject(fmt.Sprintf("insufficient GPU memory for client state: %v", err))
	}
	if inst, err = s.store.NewInstance(hello.ClientID, hello.Cut); err != nil {
		return reject(err.Error())
	}
	if _, err := inst.AttachAdapter(tensor.NewRNG(hello.AdapterSeed), hello.Adapter); err != nil {
		return reject(err.Error())
	}
	// Feature negotiation: accept the intersection of the client's
	// offer and what this server supports. Trace context is only
	// useful (and only acked) when a tracer is wired; migration is
	// always supported (the admin plane may simply never order one);
	// compressed payloads are acked only when this server is itself
	// configured to send them (-wire-compress).
	var features uint64
	if s.cfg.Tracer != nil {
		features = hello.Features & split.FeatureTraceContext
	}
	features |= hello.Features & split.FeatureMigration
	if s.cfg.WireCodec != quant.CodecFP32 {
		features |= hello.Features & split.FeatureActivationCompression
	}

	// A resuming redial must find its staged snapshot before the
	// session is admitted.
	var staged *stagedSession
	if hello.ResumeToken != 0 {
		staged = s.takeStaged(hello.ResumeToken)
		if staged == nil {
			return reject(fmt.Sprintf("unknown resume token %d", hello.ResumeToken))
		}
		if staged.clientID != hello.ClientID {
			return reject(fmt.Sprintf("resume token %d was staged for another client", hello.ResumeToken))
		}
	}
	sess := &session{
		id:        hello.ClientID,
		handle:    handle,
		inst:      inst,
		scratch:   inst.Scratch(),
		body:      inst.Body(),
		params:    inst.AdapterParams(),
		optimizer: nn.NewAdam(lr),
		mf:        mf,
		mb:        mb,
		batch:     hello.Batch,
		seq:       hello.Seq,
		features:  features,
		payload:   s.payload,
	}
	sess.dropParked = func() { sess.parked.Store(nil) }
	sess.payload.Negotiated = features&split.FeatureActivationCompression != 0

	// Restore a migrated session: the snapshot's values, grads,
	// optimizer slots and step count land on the instance just built,
	// which nothing has stepped, and the client resumes bit-exactly where
	// the source server left off.
	if staged != nil {
		// Untraced span (the replayed iteration's trace ID arrives only
		// with the client's next ForwardReq); the destination side of a
		// migration is still visible on the session's track.
		mig := s.cfg.Tracer.Begin(sess.id, obs.SpanMigrateIn)
		if err := checkpoint.DecodeSession(staged.data, sess.params, sess.optimizer); err != nil {
			return reject(fmt.Sprintf("resume restore failed: %v", err))
		}
		mig.End()
		s.logf("client %q: session resumed from snapshot (%d bytes)", sess.id, len(staged.data))
	}

	if err := fr.WriteMessage(&split.HelloAck{
		OK:            true,
		ForwardBytes:  mf,
		BackwardBytes: mb,
		Features:      features,
	}); err != nil {
		return nil, fmt.Errorf("write ack: %w", err)
	}
	sess.arena = arenaGauges{
		retained:    s.m.arenaRetained.With(sess.id),
		outstanding: s.m.arenaOutstanding.With(sess.id),
	}
	s.m.admitted.Inc()
	s.m.active.Add(1)
	return sess, nil
}

func (s *Server) teardown(sess *session) {
	s.mu.Lock()
	if s.sessions[sess.id] == sess {
		delete(s.sessions, sess.id)
		// An unexecuted migration order dies with the session.
		delete(s.pendingMig, sess.id)
	}
	s.mu.Unlock()
	sess.handle.Forget() // grant and reservation; a reconnect is a newcomer
	sess.scratch.Put(sess.cachedInput)
	sess.cachedInput = nil
	if err := sess.inst.Release(); err != nil && !errors.Is(err, share.ErrReleased) {
		s.logf("client %q: release: %v", sess.id, err)
	}
	sess.arena.set(0, 0) // the arena goes with the instance
	// Last, so that a client no longer counted has nothing left held.
	s.m.active.Add(-1)
}

// arenaGauges are one session's series of the arena families. The
// session's goroutine moves them by the change since its last report,
// so a series that several sessions share past the family's
// cardinality cap (obs.VecOverflowLabel) holds their sum.
type arenaGauges struct {
	retained, outstanding         *obs.Gauge
	lastRetained, lastOutstanding int64
}

// publish reports the arena's retained and outstanding bytes now.
func (g *arenaGauges) publish(sc *tensor.Scratch) {
	out, _ := sc.Outstanding()
	g.set(sc.RetainedBytes(), out)
}

func (g *arenaGauges) set(retained, outstanding int64) {
	g.retained.Add(retained - g.lastRetained)
	g.outstanding.Add(outstanding - g.lastOutstanding)
	g.lastRetained, g.lastOutstanding = retained, outstanding
}

// acquire blocks until the scheduler grants kind's memory to works:
// one session's own request under its ID (batchID "", members nil,
// shed nil), or a formed batch's members as one aggregate request under
// batchID, members[i] being works[i]'s share. A member admission
// control sheds comes back with its Err set and is not in the grant: it
// is handed to shed(i) as soon as the submission returns, before the
// wait for the grant, so it hears of its shed at once, as a serial
// submission does. Each member gets its own wait span, and each granted
// one its grant-wait exemplar, stamped with its trace ID (0 = untraced)
// to tie a tail-latency observation back to the client iteration that
// suffered it.
func (s *Server) acquire(kind sched.RequestKind, batchID string, members []sched.BatchMember, shed func(i int), works ...*phaseWork) error {
	waitSpan, _ := kind.Spans()
	spans := make([]*obs.SpanHandle, len(works))
	for i, w := range works {
		spans[i] = s.cfg.Tracer.BeginT(w.sess.id, waitSpan, w.traceID)
	}
	granted := make(chan struct{}, 1) // may fire synchronously inside Submit
	grant := func() { granted <- struct{}{} }
	start := time.Now()
	var err error
	sess := works[0].sess
	if batchID == "" {
		err = sess.handle.Submit(kind, sess.demand(kind), grant)
	} else {
		err = s.scheduler.SubmitBatch(batchID, kind, members, grant)
	}
	if err == nil {
		for i := range members {
			if members[i].Err != nil {
				spans[i].End()
				spans[i] = nil // ended: a close below must not end it again
				shed(i)
			}
		}
		select {
		case <-granted:
		case <-s.done:
			// The server closed while the request waited. A request
			// granted in the meantime is served and released as usual.
			if (batchID == "" && sess.handle.Withdraw()) || (batchID != "" && s.scheduler.Withdraw(batchID)) {
				err = ErrServerClosed
			} else {
				<-granted
			}
		}
	} else if errors.Is(err, sched.ErrNeverFits) {
		s.cfg.Flight.TriggerAsync(obs.FlightReasonOOM)
	}
	wait := time.Since(start)
	for i, w := range works {
		switch {
		case err != nil:
			spans[i].End()
		case members == nil || members[i].Err == nil:
			spans[i].End()
			s.m.schedWait.ObserveExemplar(wait.Seconds(), w.traceID)
		}
	}
	return err
}

// demand is the priced scheduler footprint of one phase.
func (sess *session) demand(kind sched.RequestKind) int64 {
	if kind == sched.KindBackward {
		return sess.mb
	}
	return sess.mf
}

// committed is the session's committed transient demand: the largest
// single grant it can request. /loadz sums it into committed_bytes and
// /admin/sessions reports it per session as demand_bytes.
func (sess *session) committed() int64 { return max(sess.mf, sess.mb) }

// phaseWork is one forward or backward request on its way through an
// executor: the request envelope (serveForward/serveBackward) fills the
// input half, the executor — the session's own body, or the batched
// invocation the request joined — fills the outcome half.
type phaseWork struct {
	sess    *session
	x       *tensor.Tensor // x_c on forward, g_c on backward
	batch   int
	seq     int
	traceID uint64

	out  *tensor.Tensor // x_s on forward, g_s on backward
	comp time.Duration
}

// checkShape rejects a decoded request tensor that is not the
// (batch·seq, model dim) matrix its header promised — in the envelope,
// because past run it may be stacked with other tenants' rows, where a
// malformed member would fail the whole batch and end every session.
func (s *Server) checkShape(what string, t *tensor.Tensor, rows int) error {
	dim := s.store.Config().Dim
	if t.Rank() != 2 || t.Dim(0) != rows || t.Dim(1) != dim {
		return fmt.Errorf("%s have shape %v, want [%d %d] (batch·seq rows, model width)", what, t.Shape(), rows, dim)
	}
	return nil
}

// run executes one phase of w's session and is the one place that
// decides how, from what the scheduler observes. A backward first claims
// the grant its forward parked: a kept cache is served on the session's
// own body whatever the load. A forward first gives back a cache an
// earlier forward left parked, so the session holds nothing from here
// on. Then a batchable request joins a batched invocation, but only
// while another request waits for memory — the one case where one
// aggregate grant buys something, and where a serial forward's grow
// would be refused anyway. Otherwise the phase runs on the session's own
// body. Every executor acquires and releases its grant itself and
// leaves the session's bookkeeping to the envelope.
func (s *Server) run(kind sched.RequestKind, w *phaseWork) error {
	sess := w.sess
	if kind == sched.KindBackward {
		if sess.handle.Claim() {
			return s.runBackward(w, sess.parked.Swap(nil))
		}
	} else if sess.parked.Swap(nil) != nil {
		// A forward that no backward followed (client.Evaluate, an
		// abandoned iteration) left its cache parked: give the grant back,
		// or this phase's submission fails ErrOutstanding.
		sess.handle.Complete()
	}
	if la, ok := s.batchable(sess); ok && s.scheduler.QueueDepth() > 0 {
		it := &batch.Item{Client: sess.id, Rows: w.batch * w.seq, Bytes: sess.demand(kind), Payload: w}
		return s.engine.Join(batchKey(sess, la, kind, w.seq), it) // the member's own verdict
	}
	if kind == sched.KindForward {
		return s.runForward(w)
	}
	if err := s.acquire(sched.KindBackward, "", nil, nil, w); err != nil {
		return err
	}
	return s.runBackward(w, nil)
}

// serveForward is Algorithm 1, lines 4-8: decode, validate, run, cache
// x_c for the re-forward, record, encode, write.
func (s *Server) serveForward(fr *split.Framer, sess *session, req *split.ForwardReq) error {
	sc := sess.scratch
	x, err := sess.payload.Unpack(sc, req.Activations, req.Packed)
	if err != nil {
		return fmt.Errorf("forward: %w", err)
	}
	if x == nil {
		return errors.New("forward request without activations")
	}
	// Geometry at or below the Hello's is memory-safe (every priced
	// term is monotone in batch and seq); anything larger would outgrow
	// the priced M_f/M_b and risk an OOM, so it is rejected.
	if req.Batch <= 0 || req.Seq <= 0 || req.Batch > sess.batch || req.Seq > sess.seq {
		return fmt.Errorf("geometry (%d,%d) exceeds the Hello's (%d,%d)",
			req.Batch, req.Seq, sess.batch, sess.seq)
	}
	if err := s.checkShape("activations", x, req.Batch*req.Seq); err != nil {
		return err
	}
	w := &phaseWork{sess: sess, x: x, batch: req.Batch, seq: req.Seq, traceID: req.TraceID}
	if err := s.run(sched.KindForward, w); err != nil {
		return err
	}
	// A forward no backward followed leaves its input behind: this one
	// replaces it.
	sc.Put(sess.cachedInput)
	sess.cachedInput = x
	sess.cachedIter = req.Iter
	sess.cachedBatch = req.Batch
	sess.cachedSeq = req.Seq
	s.recordIterationHalf(sess, w.comp, req.TraceID)
	// x_s is the executor's to hand over: it goes back to the arena
	// once its frame is written.
	defer sc.Put(w.out)
	plain, packed, err := sess.payload.Pack(&sess.packed, w.out)
	if err != nil {
		return fmt.Errorf("forward: %w", err)
	}
	return fr.WriteMessage(&split.ForwardResp{Iter: req.Iter, Activations: plain, Packed: packed, TraceID: sess.echoTrace(req.TraceID)})
}

// runForward is the serial forward executor: the session's own body
// under its own grant. Whether the activations are kept is decided per
// iteration from what the scheduler observes: if nobody is waiting and
// the backward demand fits free memory the grant grows to it, the
// forward runs grad-enabled and the grant is parked with the cache
// (Fig. 3(b) without its queueing); otherwise the forward is the
// no-grad pass that releases before the gradient wait (Fig. 3(d)).
func (s *Server) runForward(w *phaseWork) error {
	sess := w.sess
	if err := s.acquire(sched.KindForward, "", nil, nil, w); err != nil {
		return err
	}
	keep := sess.handle.Grow(sess.mb)
	compSpan := s.cfg.Tracer.BeginT(sess.id, obs.SpanForward, w.traceID)
	compStart := time.Now()
	xs, cache, err := sess.body.Forward(w.x, w.batch, w.seq, keep)
	if err != nil {
		sess.handle.Complete()
		return err
	}
	w.out, w.comp = xs, time.Since(compStart)
	compSpan.End()
	if !keep {
		// Release GPU memory before waiting for gradients.
		rel := s.cfg.Tracer.BeginT(sess.id, obs.SpanRelease, w.traceID)
		sess.handle.Complete()
		rel.End()
		return nil
	}
	park := s.cfg.Tracer.BeginT(sess.id, obs.SpanPark, w.traceID)
	sess.parked.Store(cache) // before Park: the hook may fire inside it
	sess.handle.Park(sess.dropParked)
	park.End()
	return nil
}

// serveBackward is Algorithm 1, lines 9-14: decode, validate, run,
// optimize φ_s, record, encode, write.
func (s *Server) serveBackward(fr *split.Framer, sess *session, req *split.BackwardReq) error {
	sc := sess.scratch
	g, err := sess.payload.Unpack(sc, req.Gradients, req.Packed)
	if err != nil {
		return fmt.Errorf("backward: %w", err)
	}
	if g == nil {
		return errors.New("backward request without gradients")
	}
	if sess.cachedInput == nil {
		return errors.New("backward before forward")
	}
	if req.Iter != sess.cachedIter {
		return fmt.Errorf("backward for iteration %d, but forward was %d", req.Iter, sess.cachedIter)
	}
	if err := s.checkShape("gradients", g, sess.cachedBatch*sess.cachedSeq); err != nil {
		return err
	}
	w := &phaseWork{sess: sess, x: g, batch: sess.cachedBatch, seq: sess.cachedSeq, traceID: req.TraceID}
	if err := s.run(sched.KindBackward, w); err != nil {
		return err
	}
	sc.Put(g, sess.cachedInput)
	sess.cachedInput = nil
	// Optimize the server-side adapter φ_s (Algorithm 1, line 12), here
	// rather than in the executor so a session's parameters are only
	// ever stepped by its own goroutine. Under gradient accumulation
	// (Apply=false) the gradients keep accumulating across micro-batches
	// and the step is deferred.
	if req.Apply {
		sp := s.cfg.Tracer.BeginT(sess.id, obs.SpanOptimizer, req.TraceID)
		t0 := time.Now()
		if err := sess.optimizer.Step(sess.params); err != nil {
			return err
		}
		nn.ZeroGrads(sess.params)
		w.comp += time.Since(t0)
		sp.End()
	}
	s.recordIterationHalf(sess, w.comp, req.TraceID)
	s.m.iterations.Inc()
	s.ledger.AddIteration(sess.id)
	defer sc.Put(w.out) // g_s, once its frame is written
	plain, packed, err := sess.payload.Pack(&sess.packed, w.out)
	if err != nil {
		return fmt.Errorf("backward: %w", err)
	}
	return fr.WriteMessage(&split.BackwardResp{Iter: req.Iter, Gradients: plain, Packed: packed, TraceID: sess.echoTrace(req.TraceID)})
}

// runBackward is the serial backward executor, entered holding the
// phase's grant: the forward's, claimed back with its kept cache, or a
// fresh M_b grant with no cache. It backpropagates through the cache;
// without one this is Fig. 3(d)'s backward, re-forward then backward.
// Both outcomes release the grant afterwards.
func (s *Server) runBackward(w *phaseWork, cache *model.BodyCache) error {
	sess := w.sess
	compSpan := s.cfg.Tracer.BeginT(sess.id, obs.SpanBackward, w.traceID)
	compStart := time.Now()
	if cache == nil {
		refwd := s.cfg.Tracer.BeginT(sess.id, obs.SpanRefwd, w.traceID)
		var xs *tensor.Tensor
		var err error
		xs, cache, err = sess.body.Forward(sess.cachedInput, w.batch, w.seq, true)
		refwd.End()
		if err != nil {
			sess.handle.Complete()
			return err
		}
		sess.scratch.Put(xs) // only the cache is needed
		s.m.reforwards.Inc()
	}
	gs, err := sess.body.Backward(cache, w.x)
	if err != nil {
		sess.handle.Complete()
		return err
	}
	w.out, w.comp = gs, time.Since(compStart)
	compSpan.End()
	rel := s.cfg.Tracer.BeginT(sess.id, obs.SpanRelease, w.traceID)
	sess.handle.Complete()
	rel.End()
	return nil
}

// echoTrace returns the trace ID to stamp on a response: the request's
// own, but only when the session negotiated trace context (an
// un-negotiated peer must keep receiving byte-identical version-1
// frames).
func (sess *session) echoTrace(traceID uint64) uint64 {
	if sess.features&split.FeatureTraceContext == 0 {
		return 0
	}
	return traceID
}

func (s *Server) recordIterationHalf(sess *session, comp time.Duration, traceID uint64) {
	s.m.compute.ObserveExemplar(comp.Seconds(), traceID)
	s.ledger.AddCompute(sess.id, comp.Seconds())
}

func (s *Server) sendError(fr *split.Framer, err error) {
	_ = fr.WriteMessage(&split.ErrorMsg{Reason: err.Error()})
}

// sendRetryable reports an overload shed without tearing the session
// down: the client keeps its connection and resubmits after the hint.
func (s *Server) sendRetryable(fr *split.Framer, ov *sched.OverloadError) {
	_ = fr.WriteMessage(&split.ErrorMsg{
		Reason:       ov.Error(),
		Retryable:    true,
		RetryAfterMs: ov.RetryAfter.Milliseconds(),
	})
}
