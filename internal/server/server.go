// Package server implements the real (functional-plane) Menos server:
// it accepts split fine-tuning clients over any net.Listener, shares
// one base model across all of them through a share.Store, profiles
// each client's memory demands on arrival, and runs every forward and
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
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/obs"
	"menos/internal/profile"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
	"menos/internal/trace"
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
	// SchedPolicy is the scheduler discipline (default FCFS+backfill).
	SchedPolicy sched.Policy
	// MaxClients caps concurrently admitted clients (0 = unlimited).
	// Admission beyond the cap is rejected at handshake with a clear
	// reason rather than degrading everyone.
	MaxClients int
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
	// (docs/BATCHING.md). The batched executor always runs the
	// no-grad-forward / re-forward-backward protocol. The zero value
	// serves every request serially.
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
	wg     sync.WaitGroup

	// stats are atomics rather than a second mutex: serving goroutines
	// update them while holding no locks, so there is no lock ordering
	// to get wrong between stats, s.mu and the scheduler's internal
	// lock (and `go test -race` keeps it that way).
	stats struct {
		clientsServed atomic.Int64
		iterations    atomic.Int64
		schedWaitNs   atomic.Int64
		computeNs     atomic.Int64
		reforwards    atomic.Int64
	}

	m serverMetrics
}

// serverMetrics are the serving plane's telemetry handles; the zero
// value (nil handles) is valid and free.
type serverMetrics struct {
	admitted          *obs.Counter
	rejected          *obs.Counter
	iterations        *obs.Counter
	compute           *obs.Histogram
	schedWait         *obs.Histogram
	active            *obs.Gauge
	migrationsOut     *obs.Counter
	migrationsIn      *obs.Counter
	migrationsAborted *obs.Counter
	reforwards        *obs.Counter
	profileViolations *obs.Counter
}

// New creates a server over the shared store. The store's base
// parameters are charged against the GPU budget immediately — the
// paper's "preloaded into the GPU memory in advance".
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: nil store")
	}
	if cfg.GPU == nil {
		cfg.GPU = gpu.NewDevice(gpu.V100())
	}
	if cfg.SchedPolicy == 0 {
		cfg.SchedPolicy = sched.PolicyFCFSBackfill
	}
	// Instrument before the preload so the base-model charge shows up
	// in the alloc counters, not just the seeded used gauge.
	cfg.GPU.Instrument(cfg.Metrics)
	if _, err := cfg.GPU.Alloc("base-model", cfg.Store.BaseParamBytes()); err != nil {
		return nil, fmt.Errorf("server: loading base model: %w", err)
	}
	s := &Server{
		cfg:        cfg,
		store:      cfg.Store,
		device:     cfg.GPU,
		scheduler:  sched.New(cfg.GPU.Available(), cfg.SchedPolicy),
		clock:      obs.NewWallClock(),
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
		sessions:   make(map[string]*session),
		pendingMig: make(map[string]fleet.MigrateOrder),
		staged:     make(map[uint64]*stagedSession),
		payload:    split.PayloadCodec{Codec: cfg.WireCodec},
	}
	if cfg.Metrics != nil {
		s.scheduler.Instrument(cfg.Metrics, s.clock)
		// Per-tenant accounting rides the same clock; the scheduler is
		// the single source of byte-second holdings (grants and
		// persistent reservations), the serving loop adds compute,
		// iterations and wire bytes.
		s.ledger = obs.NewLedger(obs.LedgerConfig{Clock: s.clock, MaxClients: cfg.TenantCap})
		s.ledger.Instrument(cfg.Metrics)
		s.scheduler.SetLedger(s.ledger)
	}
	if cfg.Batch.Enabled() {
		pol := cfg.Batch.WithDefaults()
		engine, err := batch.New(batch.Config{
			Policy:   pol,
			Exec:     s.execBatch,
			MaxBytes: s.scheduler.Schedulable,
			Metrics:  batch.NewMetrics(cfg.Metrics, s.ledger, pol.MaxSize),
		})
		if err != nil {
			return nil, fmt.Errorf("server: batch engine: %w", err)
		}
		s.engine = engine
	} else if err := cfg.Batch.Validate(); err != nil {
		return nil, fmt.Errorf("server: batch policy: %w", err)
	}
	if cfg.SLO.Enabled() {
		if err := s.scheduler.EnableAdmission(cfg.SLO, obs.NewWallClock()); err != nil {
			return nil, fmt.Errorf("server: admission control: %w", err)
		}
		if cfg.Flight != nil {
			// Snapshot on every admission-state change. TriggerAsync
			// queues off the scheduler mutex the hook runs under.
			s.scheduler.SetAdmissionHook(func(from, to sched.AdmissionState) {
				cfg.Flight.TriggerAsync(obs.FlightReasonAdmission)
			})
		}
	}
	if cfg.Metrics != nil {
		s.m = serverMetrics{
			admitted:   cfg.Metrics.Counter(obs.MetricServerAdmitted, "clients admitted at handshake"),
			rejected:   cfg.Metrics.Counter(obs.MetricServerRejected, "clients rejected at handshake"),
			iterations: cfg.Metrics.Counter(obs.MetricServerIterations, "fine-tuning iterations completed"),
			compute:    cfg.Metrics.Histogram(obs.MetricServerComputeSeconds, obs.DurationBuckets(), "server-side compute per request"),
			schedWait:  cfg.Metrics.Histogram(obs.MetricServerWaitSeconds, obs.DurationBuckets(), "scheduler grant wait per request"),
			active:     cfg.Metrics.Gauge(obs.MetricServerActiveClients, "clients currently connected and admitted"),

			migrationsOut:     cfg.Metrics.Counter(obs.MetricServerMigrationsOut, "sessions snapshotted and redirected to another server"),
			migrationsIn:      cfg.Metrics.Counter(obs.MetricServerMigrationsIn, "sessions resumed here from a staged snapshot"),
			migrationsAborted: cfg.Metrics.Counter(obs.MetricServerMigrationsAborted, "migration orders that failed mid-flight"),

			reforwards:        cfg.Metrics.Counter(obs.MetricServerReforwards, "serial backwards that recomputed the forward (no parked cache to claim)"),
			profileViolations: cfg.Metrics.Counter(obs.MetricServerProfileViolations, "kept activation caches larger than the grant profiled for them"),
		}
		s.payload.Compressed = cfg.Metrics.Counter(obs.MetricWireCompressedBytes, "on-wire bytes of compressed activation/gradient payloads sent")
		s.payload.Raw = cfg.Metrics.Counter(obs.MetricWireRawBytes, "fp32 bytes the compressed payloads replaced")
		s.payload.Seconds = cfg.Metrics.Histogram(obs.MetricWireCodecSeconds, obs.DurationBuckets(), "time quantizing/dequantizing wire payloads")
		cfg.Metrics.Gauge(obs.MetricTensorPoolWorkers, "tensor worker-pool parallelism").Set(int64(tensor.Parallelism()))
	}
	return s, nil
}

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

// Stats returns a snapshot.
func (s *Server) Stats() Stats {
	st := Stats{
		ClientsServed: s.stats.clientsServed.Load(),
		Iterations:    s.stats.iterations.Load(),
		Reforwards:    s.stats.reforwards.Load(),
	}
	if st.Iterations > 0 {
		st.AvgSchedWait = time.Duration(s.stats.schedWaitNs.Load()) / time.Duration(st.Iterations)
		st.AvgCompute = time.Duration(s.stats.computeNs.Load()) / time.Duration(st.Iterations)
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
	id        string
	inst      *share.Instance
	body      *model.BodySection
	params    []nn.Param
	optimizer nn.Optimizer
	demands   profile.Result
	batch     int
	seq       int
	// features is the negotiated extension set (the intersection of
	// the client's Hello offer and what this server accepts).
	features uint64
	// payload unpacks request payloads and packs response payloads with
	// the server's codec, gated on the negotiated compression bit.
	payload split.PayloadCodec

	// cachedInput retains x_c between the first forward and the
	// backward re-forward ("we just need to cache the forward
	// activations for the re-forward computation, which is
	// negligible").
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

	// decode holds an open incremental-inference session; its KV bytes
	// are reserved from the scheduler until DecodeClose.
	decode *model.BodyDecodeState
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

	sess, err := s.handshake(conn)
	if err != nil {
		s.logf("handshake failed: %v", err)
		return
	}
	s.mu.Lock()
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	defer s.teardown(sess)
	defer s.flushWire(sess, conn)
	s.logf("client %q admitted (fwd=%d bwd=%d bytes)",
		sess.id, sess.demands.ForwardBytes, sess.demands.BackwardBytes)

	for {
		s.flushWire(sess, conn)
		msg, err := split.ReadMessage(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("client %q: read: %v", sess.id, err)
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
				// processes' spans under one IterTraceID in a merged
				// fleet trace (fleetd trace federation).
				mig := s.cfg.Tracer.BeginT(sess.id, "migrate:out", "migrate", m.TraceID)
				err := s.executeMigration(conn, sess, ord)
				mig.End()
				if err != nil {
					s.m.migrationsAborted.Inc()
					s.logf("client %q: migration to %s aborted: %v", sess.id, ord.TargetAddr, err)
					// Fall through: the session keeps serving here.
				} else {
					return
				}
			}
			if err := s.serveForward(conn, sess, m); err != nil {
				var ov *sched.OverloadError
				if errors.As(err, &ov) {
					// Admission shed: transient, the session stays up and
					// the client retries after the hinted backoff.
					s.logf("client %q: forward shed (%v)", sess.id, ov.RetryAfter)
					s.cfg.Flight.TriggerAsync(obs.FlightReasonShed)
					s.sendRetryable(conn, ov)
					continue
				}
				s.logf("client %q: forward: %v", sess.id, err)
				s.sendError(conn, err)
				return
			}
		case *split.BackwardReq:
			if err := s.serveBackward(conn, sess, m); err != nil {
				var ov *sched.OverloadError
				if errors.As(err, &ov) {
					s.logf("client %q: backward shed (%v)", sess.id, ov.RetryAfter)
					s.cfg.Flight.TriggerAsync(obs.FlightReasonShed)
					s.sendRetryable(conn, ov)
					continue
				}
				s.logf("client %q: backward: %v", sess.id, err)
				s.sendError(conn, err)
				return
			}
		case *split.DecodeOpen:
			if err := s.serveDecodeOpen(conn, sess, m); err != nil {
				s.logf("client %q: decode open: %v", sess.id, err)
				s.sendError(conn, err)
				return
			}
		case *split.DecodeReq:
			if err := s.serveDecodeStep(conn, sess, m); err != nil {
				s.logf("client %q: decode: %v", sess.id, err)
				s.sendError(conn, err)
				return
			}
		case *split.DecodeClose:
			s.closeDecode(sess)
		case *split.Bye:
			s.logf("client %q: bye", sess.id)
			return
		default:
			s.sendError(conn, fmt.Errorf("unexpected message %v", msg.MsgType()))
			return
		}
	}
}

// handshake admits a client: validates the Hello, builds the instance,
// attaches the adapter, charges persistent memory, and profiles.
func (s *Server) handshake(conn net.Conn) (*session, error) {
	msg, err := split.ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("read hello: %w", err)
	}
	hello, ok := msg.(*split.Hello)
	if !ok {
		return nil, fmt.Errorf("expected hello, got %v", msg.MsgType())
	}
	admitSpan := s.cfg.Tracer.Begin(hello.ClientID, "admit", "admission")
	reject := func(reason string) (*session, error) {
		s.m.rejected.Inc()
		admitSpan.End()
		_ = split.WriteMessage(conn, &split.HelloAck{OK: false, Reason: reason})
		return nil, fmt.Errorf("rejected %q: %s", hello.ClientID, reason)
	}
	if hello.ClientID == "" {
		return reject("missing client id")
	}
	if hello.ModelName != s.store.Config().Name {
		return reject(fmt.Sprintf("model %q not hosted (serving %q)", hello.ModelName, s.store.Config().Name))
	}
	if hello.Batch <= 0 || hello.Seq <= 0 || hello.Seq > s.store.Config().MaxSeq {
		return reject(fmt.Sprintf("bad geometry batch=%d seq=%d", hello.Batch, hello.Seq))
	}
	if err := hello.Adapter.Validate(); err != nil {
		return reject(err.Error())
	}

	if s.cfg.MaxClients > 0 && s.store.ActiveInstances() >= s.cfg.MaxClients {
		return reject(fmt.Sprintf("server at capacity (%d clients)", s.cfg.MaxClients))
	}
	// Under sustained overload the controller sheds new clients before
	// they are profiled or charged — a retryable rejection, unlike the
	// hard configuration rejections above.
	if s.scheduler.AdmissionState() == sched.StateShedding {
		s.m.rejected.Inc()
		s.ledger.Shed(hello.ClientID)
		admitSpan.End()
		s.cfg.Flight.TriggerAsync(obs.FlightReasonShed)
		retry := s.retryAfter()
		_ = split.WriteMessage(conn, &split.HelloAck{
			OK:           false,
			Reason:       "server overloaded",
			Retryable:    true,
			RetryAfterMs: retry.Milliseconds(),
		})
		return nil, fmt.Errorf("shed %q: overloaded (retry after %v)", hello.ClientID, retry)
	}
	inst, err := s.store.NewInstance(hello.ClientID, hello.Cut)
	if err != nil {
		return reject(err.Error())
	}
	cleanup := func() { _ = inst.Release() }

	if _, err := inst.AttachAdapter(tensor.NewRNG(hello.AdapterSeed), hello.Adapter); err != nil {
		cleanup()
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

	// A resuming redial must find its staged snapshot before any state
	// is built; claiming it early also keeps a bad token from leaking
	// an instance.
	var staged *stagedSession
	if hello.ResumeToken != 0 {
		staged = s.takeStaged(hello.ResumeToken)
		if staged == nil {
			cleanup()
			return reject(fmt.Sprintf("unknown resume token %d", hello.ResumeToken))
		}
		if staged.clientID != hello.ClientID {
			cleanup()
			return reject(fmt.Sprintf("resume token %d was staged for another client", hello.ResumeToken))
		}
	}
	sess := &session{
		id:       hello.ClientID,
		inst:     inst,
		body:     inst.Body(),
		params:   inst.AdapterParams(),
		batch:    hello.Batch,
		seq:      hello.Seq,
		features: features,
		payload:  s.payload,
	}
	sess.dropParked = func() { sess.parked.Store(nil) }
	sess.payload.Negotiated = features&split.FeatureActivationCompression != 0
	switch hello.Optimizer.Kind {
	case "", "adam":
		lr := hello.Optimizer.LR
		if lr == 0 {
			lr = 1e-3
		}
		sess.optimizer = nn.NewAdam(lr)
	case "sgd":
		sess.optimizer = nn.NewSGD(hello.Optimizer.LR, 0)
	default:
		cleanup()
		return reject(fmt.Sprintf("unknown optimizer %q", hello.Optimizer.Kind))
	}

	// Reserve the client's persistent footprint (adapter params,
	// grads, Adam moments, process context) outside the request
	// queue. The reservation shrinks the schedulable pool for the
	// client's lifetime.
	persistent := 4*inst.Adapter().ParamBytes() + contextOverheadBytes
	if err := s.scheduler.Reserve("persist:"+hello.ClientID, persistent); err != nil {
		cleanup()
		return reject(fmt.Sprintf("insufficient GPU memory for client state: %v", err))
	}
	releaseReservation := func() { s.scheduler.Complete("persist:" + hello.ClientID) }

	// Profiling phase (§3.3): random inputs through fwd/bwd.
	demands, err := profile.MeasureBody(sess.body, sess.params, hello.Batch, hello.Seq,
		s.store.Config().Dim, hello.AdapterSeed)
	if err != nil {
		releaseReservation()
		cleanup()
		return reject(fmt.Sprintf("profiling failed: %v", err))
	}
	sess.demands = demands
	// Scheduler principle 1: a demand that could never be granted is
	// rejected up front rather than deadlocking the client later.
	// Schedulable, not Available: another tenant's grant in flight makes
	// this client wait its turn, it does not make the demand ungrantable.
	if schedulable := s.scheduler.Schedulable(); demands.BackwardBytes > schedulable {
		releaseReservation()
		cleanup()
		s.cfg.Flight.TriggerAsync(obs.FlightReasonOOM)
		return reject(fmt.Sprintf("backward demand %d exceeds schedulable memory %d",
			demands.BackwardBytes, schedulable))
	}

	// Restore a migrated session after profiling: MeasureBody leaves
	// zeroed gradients behind, so the snapshot's values, grads,
	// optimizer slots and step count land on a clean slate and the
	// client resumes bit-exactly where the source server left off.
	if staged != nil {
		// Untraced span (the replayed iteration's trace ID arrives only
		// with the client's next ForwardReq); the destination side of a
		// migration is still visible on the session's track.
		mig := s.cfg.Tracer.Begin(sess.id, "migrate:in", "migrate")
		if err := checkpoint.DecodeSession(staged.data, sess.params, sess.optimizer); err != nil {
			releaseReservation()
			cleanup()
			return reject(fmt.Sprintf("resume restore failed: %v", err))
		}
		mig.End()
		s.m.migrationsIn.Inc()
		s.logf("client %q: session resumed from snapshot (%d bytes)", sess.id, len(staged.data))
	}

	if err := split.WriteMessage(conn, &split.HelloAck{
		OK:            true,
		ForwardBytes:  demands.ForwardBytes,
		BackwardBytes: demands.BackwardBytes,
		Features:      features,
	}); err != nil {
		releaseReservation()
		cleanup()
		return nil, fmt.Errorf("write ack: %w", err)
	}
	s.stats.clientsServed.Add(1)
	s.m.admitted.Inc()
	s.m.active.Add(1)
	admitSpan.End()
	return sess, nil
}

// contextOverheadBytes mirrors memmodel.ContextOverheadBytes for the
// real runtime's accounting device.
const contextOverheadBytes = 128 << 20

func (s *Server) teardown(sess *session) {
	s.mu.Lock()
	if s.sessions[sess.id] == sess {
		delete(s.sessions, sess.id)
		// An unexecuted migration order dies with the session.
		delete(s.pendingMig, sess.id)
	}
	s.mu.Unlock()
	s.m.active.Add(-1)
	s.closeDecode(sess)
	s.scheduler.Complete(sess.id) // a grant in flight or parked, if any
	s.scheduler.Complete("persist:" + sess.id)
	if err := sess.inst.Release(); err != nil && !errors.Is(err, share.ErrReleased) {
		s.logf("client %q: release: %v", sess.id, err)
	}
}

// acquire blocks until the scheduler grants kind's memory to works:
// one session's own request under its ID (batchID ""), or a formed
// batch's members as one aggregate request under batchID. Each member
// gets its own wait span and grant-wait exemplar, stamped with its
// trace ID (0 = untraced) to tie a tail-latency observation back to the
// client iteration that suffered it.
func (s *Server) acquire(kind sched.RequestKind, batchID string, works ...*phaseWork) error {
	spans := make([]*obs.SpanHandle, len(works))
	for i, w := range works {
		spans[i] = s.cfg.Tracer.BeginT(w.sess.id, "wait:"+kind.String(), "sched", w.traceID)
	}
	granted := make(chan struct{}, 1) // may fire synchronously inside Submit
	grant := func() { granted <- struct{}{} }
	start := time.Now()
	var err error
	if batchID == "" {
		sess := works[0].sess
		err = s.scheduler.Submit(sess.id, kind, sess.demand(kind), grant)
	} else {
		members := make([]sched.BatchMember, len(works))
		for i, w := range works {
			members[i] = sched.BatchMember{ClientID: w.sess.id, Bytes: w.sess.demand(kind)}
		}
		err = s.scheduler.SubmitBatch(batchID, kind, members, grant)
	}
	if err == nil {
		<-granted
	} else if errors.Is(err, sched.ErrNeverFits) {
		s.cfg.Flight.TriggerAsync(obs.FlightReasonOOM)
	}
	wait := time.Since(start)
	for i, w := range works {
		spans[i].End()
		if err == nil {
			w.wait = wait
			s.m.schedWait.ObserveExemplar(wait.Seconds(), w.traceID)
		}
	}
	return err
}

// demand is the profiled scheduler footprint of one phase.
func (sess *session) demand(kind sched.RequestKind) int64 {
	if kind == sched.KindBackward {
		return sess.demands.BackwardBytes
	}
	return sess.demands.ForwardBytes
}

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
	wait time.Duration
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

// run executes one phase of w's session: as a member of a batched
// invocation when the session is batchable, on its own body otherwise.
// Both executors acquire and release the phase's grant themselves and
// leave the session's bookkeeping to the envelope.
func (s *Server) run(kind sched.RequestKind, w *phaseWork) error {
	if la, ok := s.batchable(w.sess); ok {
		it := &batch.Item{Client: w.sess.id, Rows: w.batch * w.seq, Bytes: w.sess.demand(kind), Payload: w}
		return s.engine.Join(batchKey(w.sess, la, kind, w.seq), it) // the member's own verdict
	}
	if kind == sched.KindBackward {
		return s.runBackward(w)
	}
	return s.runForward(w)
}

// serveForward is Algorithm 1, lines 4-8: decode, validate, run, cache
// x_c for the re-forward, record, encode, write.
func (s *Server) serveForward(conn net.Conn, sess *session, req *split.ForwardReq) error {
	x, err := sess.payload.Unpack(req.Activations, req.Packed)
	if err != nil {
		return fmt.Errorf("forward: %w", err)
	}
	if x == nil {
		return errors.New("forward request without activations")
	}
	// Geometry at or below the profiled one is memory-safe (demands
	// shrink monotonically); anything larger would invalidate the
	// profiled M_f/M_b and risk an OOM, so it is rejected.
	if req.Batch <= 0 || req.Seq <= 0 || req.Batch > sess.batch || req.Seq > sess.seq {
		return fmt.Errorf("geometry (%d,%d) exceeds profiled (%d,%d)",
			req.Batch, req.Seq, sess.batch, sess.seq)
	}
	if err := s.checkShape("activations", x, req.Batch*req.Seq); err != nil {
		return err
	}
	w := &phaseWork{sess: sess, x: x, batch: req.Batch, seq: req.Seq, traceID: req.TraceID}
	if err := s.run(sched.KindForward, w); err != nil {
		return err
	}
	sess.cachedInput = x
	sess.cachedIter = req.Iter
	sess.cachedBatch = req.Batch
	sess.cachedSeq = req.Seq
	s.recordIterationHalf(sess, w.wait, w.comp, req.TraceID)
	plain, packed, err := sess.payload.Pack(w.out)
	if err != nil {
		return fmt.Errorf("forward: %w", err)
	}
	return split.WriteMessage(conn, &split.ForwardResp{Iter: req.Iter, Activations: plain, Packed: packed, TraceID: sess.echoTrace(req.TraceID)})
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
	if sess.parked.Swap(nil) != nil {
		// A forward that no backward followed (client.Evaluate, an
		// abandoned iteration) left its cache parked: give the grant back,
		// or this Submit fails ErrOutstanding.
		s.scheduler.Complete(sess.id)
	}
	if err := s.acquire(sched.KindForward, "", w); err != nil {
		return err
	}
	keep := s.scheduler.Grow(sess.id, sess.demands.BackwardBytes)
	compSpan := s.cfg.Tracer.BeginT(sess.id, "forward", "compute", w.traceID)
	compStart := time.Now()
	xs, cache, err := sess.body.Forward(w.x, w.batch, w.seq, keep)
	if err != nil {
		s.scheduler.Complete(sess.id)
		return err
	}
	w.out, w.comp = xs, time.Since(compStart)
	compSpan.End()
	if keep && cache.Bytes() > sess.demands.BackwardBytes {
		// Estimate-then-validate: the profiled M_b must cover what is
		// kept. A profile that does not is reported, and the cache is not
		// held on a grant too small for it.
		s.m.profileViolations.Inc()
		s.cfg.Flight.TriggerAsync(obs.FlightReasonProfile)
		s.logf("client %q: kept cache %d bytes exceeds profiled backward demand %d",
			sess.id, cache.Bytes(), sess.demands.BackwardBytes)
		keep = false
	}
	if !keep {
		// Release GPU memory before waiting for gradients.
		rel := s.cfg.Tracer.BeginT(sess.id, "release", "release", w.traceID)
		s.scheduler.Complete(sess.id)
		rel.End()
		return nil
	}
	park := s.cfg.Tracer.BeginT(sess.id, "park", "release", w.traceID)
	sess.parked.Store(cache) // before Park: the hook may fire inside it
	s.scheduler.Park(sess.id, sess.dropParked)
	park.End()
	return nil
}

// serveBackward is Algorithm 1, lines 9-14: decode, validate, run,
// optimize φ_s, record, encode, write.
func (s *Server) serveBackward(conn net.Conn, sess *session, req *split.BackwardReq) error {
	g, err := sess.payload.Unpack(req.Gradients, req.Packed)
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
	sess.cachedInput = nil
	// Optimize the server-side adapter φ_s (Algorithm 1, line 12), here
	// rather than in the executor so a session's parameters are only
	// ever stepped by its own goroutine. Under gradient accumulation
	// (Apply=false) the gradients keep accumulating across micro-batches
	// and the step is deferred.
	if req.Apply {
		sp := s.cfg.Tracer.BeginT(sess.id, "optimizer", "compute", req.TraceID)
		t0 := time.Now()
		if err := sess.optimizer.Step(sess.params); err != nil {
			return err
		}
		nn.ZeroGrads(sess.params)
		w.comp += time.Since(t0)
		sp.End()
	}
	s.recordIterationHalf(sess, w.wait, w.comp, req.TraceID)
	s.stats.iterations.Add(1)
	s.m.iterations.Inc()
	s.ledger.AddIteration(sess.id)
	plain, packed, err := sess.payload.Pack(w.out)
	if err != nil {
		return fmt.Errorf("backward: %w", err)
	}
	return split.WriteMessage(conn, &split.BackwardResp{Iter: req.Iter, Gradients: plain, Packed: packed, TraceID: sess.echoTrace(req.TraceID)})
}

// runBackward is the serial backward executor. It claims the grant the
// forward parked and backpropagates through the kept cache; if the
// scheduler revoked it for someone else (or the forward never kept it)
// this is Fig. 3(d)'s backward: acquire M_b, re-forward, backward. Both
// outcomes release the grant afterwards.
func (s *Server) runBackward(w *phaseWork) error {
	sess := w.sess
	var cache *model.BodyCache
	if s.scheduler.Claim(sess.id) {
		cache = sess.parked.Swap(nil)
	} else if err := s.acquire(sched.KindBackward, "", w); err != nil {
		return err
	}
	compSpan := s.cfg.Tracer.BeginT(sess.id, "backward", "compute", w.traceID)
	compStart := time.Now()
	if cache == nil {
		refwd := s.cfg.Tracer.BeginT(sess.id, "refwd", "recompute", w.traceID)
		var err error
		_, cache, err = sess.body.Forward(sess.cachedInput, w.batch, w.seq, true)
		refwd.End()
		if err != nil {
			s.scheduler.Complete(sess.id)
			return err
		}
		s.stats.reforwards.Add(1)
		s.m.reforwards.Inc()
	}
	gs, err := sess.body.Backward(cache, w.x)
	if err != nil {
		s.scheduler.Complete(sess.id)
		return err
	}
	w.out, w.comp = gs, time.Since(compStart)
	compSpan.End()
	rel := s.cfg.Tracer.BeginT(sess.id, "release", "release", w.traceID)
	s.scheduler.Complete(sess.id)
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

func (s *Server) recordIterationHalf(sess *session, wait, comp time.Duration, traceID uint64) {
	s.stats.schedWaitNs.Add(int64(wait))
	s.stats.computeNs.Add(int64(comp))
	s.m.compute.ObserveExemplar(comp.Seconds(), traceID)
	s.ledger.AddCompute(sess.id, comp.Seconds())
}

func (s *Server) sendError(conn net.Conn, err error) {
	_ = split.WriteMessage(conn, &split.ErrorMsg{Reason: err.Error()})
}

// sendRetryable reports an overload shed without tearing the session
// down: the client keeps its connection and resubmits after the hint.
func (s *Server) sendRetryable(conn net.Conn, ov *sched.OverloadError) {
	_ = split.WriteMessage(conn, &split.ErrorMsg{
		Reason:       ov.Error(),
		Retryable:    true,
		RetryAfterMs: ov.RetryAfter.Milliseconds(),
	})
}

// retryAfter is the handshake-level backoff hint, from the configured
// SLO (falling back to the p99 target itself).
func (s *Server) retryAfter() time.Duration {
	if s.cfg.SLO.RetryAfter > 0 {
		return s.cfg.SLO.RetryAfter
	}
	return s.cfg.SLO.TargetP99
}

// Breakdown satisfies experiment harnesses that want a trace view of
// server activity.
func (s *Server) Breakdown() *trace.Breakdown {
	bd := &trace.Breakdown{}
	st := s.Stats()
	if st.Iterations > 0 {
		bd.Add(0, st.AvgCompute*time.Duration(st.Iterations), st.AvgSchedWait*time.Duration(st.Iterations))
	}
	return bd
}

// serveDecodeOpen starts an incremental-inference session: the KV
// cache for the whole session is reserved from the scheduler up front
// (the inference-time analogue of the profiled training demands), so a
// decode session can never OOM mid-stream.
func (s *Server) serveDecodeOpen(conn net.Conn, sess *session, req *split.DecodeOpen) error {
	reject := func(reason string) error {
		return split.WriteMessage(conn, &split.DecodeAck{OK: false, Reason: reason})
	}
	if sess.decode != nil {
		return reject("decode session already open")
	}
	if req.Capacity <= 0 || req.Capacity > s.store.Config().MaxSeq {
		return reject(fmt.Sprintf("capacity %d out of range (1..%d)",
			req.Capacity, s.store.Config().MaxSeq))
	}
	state, err := sess.body.NewDecodeState(req.Capacity, s.store.Config().Dim)
	if err != nil {
		return reject(err.Error())
	}
	if err := s.scheduler.Reserve("decode:"+sess.id, state.Bytes()); err != nil {
		return reject(fmt.Sprintf("insufficient GPU memory for KV cache: %v", err))
	}
	sess.decode = state
	s.logf("client %q: decode session open (%d positions, %d KV bytes)",
		sess.id, req.Capacity, state.Bytes())
	return split.WriteMessage(conn, &split.DecodeAck{OK: true, KVBytes: state.Bytes()})
}

// serveDecodeStep advances an open session by one position.
func (s *Server) serveDecodeStep(conn net.Conn, sess *session, req *split.DecodeReq) error {
	if sess.decode == nil {
		return errors.New("decode request without an open session")
	}
	if req.Activation == nil {
		return errors.New("decode request without activation")
	}
	if req.Pos != sess.decode.Len() {
		return fmt.Errorf("decode position %d, session is at %d", req.Pos, sess.decode.Len())
	}
	out, err := sess.body.DecodeStep(req.Activation, sess.decode)
	if err != nil {
		return err
	}
	return split.WriteMessage(conn, &split.DecodeResp{Pos: req.Pos, Activation: out})
}

// closeDecode releases an open session's KV reservation, if any.
func (s *Server) closeDecode(sess *session) {
	if sess.decode == nil {
		return
	}
	sess.decode = nil
	s.scheduler.Complete("decode:" + sess.id)
	s.logf("client %q: decode session closed", sess.id)
}
