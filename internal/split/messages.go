package split

import (
	"menos/internal/adapter"
	"menos/internal/quant"
	"menos/internal/tensor"
)

// OptimizerConfig is the client's server-side optimizer choice (the
// server optimizes φ_s on the client's behalf, Algorithm 1 line 12).
type OptimizerConfig struct {
	Kind string // "adam" (the only optimizer a server runs)
	LR   float64
}

// Hello is the first client message: the fine-tuning configuration the
// server prices its memory demands from (§3.3) — model, cut, adapter settings,
// batch geometry — plus a seed so the server-side adapter φ_s is
// initialized deterministically.
type Hello struct {
	ClientID    string
	ModelName   string
	Cut         int
	Adapter     adapter.Spec
	Optimizer   OptimizerConfig
	Batch       int
	Seq         int
	AdapterSeed uint64

	// Features offers protocol extensions (Feature* bits). Carried in
	// a VersionExt tail, so it is only on the wire when nonzero; an
	// old server never sees it and an old client never sends it.
	Features uint64

	// ResumeToken resumes a migrated session: it carries the token from
	// the Migrate redirect so the target server can match this dial to
	// the session snapshot the control plane staged for it. Appended to
	// the ext tail only when nonzero — a fresh dial's Hello stays
	// byte-identical to its pre-migration form, and only servers that
	// advertise FeatureMigration ever receive one.
	ResumeToken uint64
}

// MsgType implements Message.
func (*Hello) MsgType() MsgType { return TypeHello }

func (m *Hello) encode(e *encoder) {
	e.str(m.ClientID)
	e.str(m.ModelName)
	e.i64(int64(m.Cut))
	encodeSpec(e, m.Adapter)
	e.str(m.Optimizer.Kind)
	e.f64(m.Optimizer.LR)
	e.i64(int64(m.Batch))
	e.i64(int64(m.Seq))
	e.u64(m.AdapterSeed)
}

func (m *Hello) decode(d *decoder) {
	m.ClientID = d.str()
	m.ModelName = d.str()
	m.Cut = int(d.i64())
	m.Adapter = decodeSpec(d)
	m.Optimizer.Kind = d.str()
	m.Optimizer.LR = d.f64()
	m.Batch = int(d.i64())
	m.Seq = int(d.i64())
	m.AdapterSeed = d.u64()
}

func (m *Hello) extPresent() bool { return m.Features != 0 || m.ResumeToken != 0 }

func (m *Hello) encodeExt(e *encoder) {
	e.u64(m.Features)
	if m.ResumeToken != 0 {
		e.u64(m.ResumeToken)
	}
}

func (m *Hello) decodeExt(d *decoder) {
	m.Features = d.u64()
	// ResumeToken was appended to the ext tail after Features shipped;
	// decode it only when bytes remain so older frames stay valid.
	if d.err == nil && d.off < len(d.buf) {
		m.ResumeToken = d.u64()
	}
}

// encodeSpec writes an adapter spec. Its trailing i64 is reserved: it
// carried the width of a retired adapter kind, is written as 0 and is
// read and discarded, so every frame keeps its bytes and a Hello naming
// the retired kind still decodes (and is refused at validation).
func encodeSpec(e *encoder, s adapter.Spec) {
	e.u8(uint8(s.Kind))
	e.i64(int64(s.Rank))
	e.f64(s.Alpha)
	e.u32(uint32(len(s.Targets)))
	for _, t := range s.Targets {
		e.u8(uint8(t))
	}
	e.i64(int64(s.PrefixLen))
	e.i64(0)
}

func decodeSpec(d *decoder) adapter.Spec {
	var s adapter.Spec
	s.Kind = adapter.Kind(d.u8())
	s.Rank = int(d.i64())
	s.Alpha = d.f64()
	n := int(d.u32())
	if n > 16 { // defensive bound; no adapter has more than 4 targets
		d.fail()
		return s
	}
	for i := 0; i < n; i++ {
		s.Targets = append(s.Targets, adapter.Target(d.u8()))
	}
	s.PrefixLen = int(d.i64())
	d.i64()
	return s
}

// HelloAck reports the client's priced memory demands (or a
// rejection) back to it. A rejection with Retryable set is transient — the server is
// shedding load, not refusing the configuration — and the client
// should redial after RetryAfterMs.
type HelloAck struct {
	OK bool
	// ForwardBytes / BackwardBytes are the memory demands M_f and M_b
	// the server priced from the Hello's workload
	// (memmodel.Workload.NoGradForwardBytes and BackwardPeakBytes).
	ForwardBytes  int64
	BackwardBytes int64
	Reason        string // set when !OK
	// Retryable marks an overload rejection; RetryAfterMs is the
	// server's backoff hint in milliseconds.
	Retryable    bool
	RetryAfterMs int64

	// Features echoes the subset of the client's offered Feature* bits
	// the server accepted (VersionExt tail; absent on the wire when
	// zero, so an old client is unaffected).
	Features uint64
}

// MsgType implements Message.
func (*HelloAck) MsgType() MsgType { return TypeHelloAck }

func (m *HelloAck) encode(e *encoder) {
	e.bool(m.OK)
	e.i64(m.ForwardBytes)
	e.i64(m.BackwardBytes)
	e.str(m.Reason)
	e.bool(m.Retryable)
	e.i64(m.RetryAfterMs)
}

func (m *HelloAck) decode(d *decoder) {
	m.OK = d.bool()
	m.ForwardBytes = d.i64()
	m.BackwardBytes = d.i64()
	m.Reason = d.str()
	m.Retryable = d.bool()
	m.RetryAfterMs = d.i64()
}

func (m *HelloAck) extPresent() bool     { return m.Features != 0 }
func (m *HelloAck) encodeExt(e *encoder) { e.u64(m.Features) }
func (m *HelloAck) decodeExt(d *decoder) { m.Features = d.u64() }

// The four tensor messages share one payload layout: the base payload
// carries the tensor, or its tensor-absent marker when the payload
// travels codec-compressed, and the ext tail carries TraceID, then the
// Packed payload when there is one.

// encodePayload writes t, or the tensor-absent marker when p carries it.
func encodePayload(e *encoder, t *tensor.Tensor, p *quant.Packed) {
	if p != nil {
		t = nil
	}
	e.tensor(t)
}

func encodePayloadExt(e *encoder, traceID uint64, p *quant.Packed) {
	e.u64(traceID)
	if p != nil {
		e.packed(p)
	}
}

// decodePayloadExt reads a tensor message's ext tail. The compressed
// payload was appended after TraceID shipped; it is decoded only when
// bytes remain so older frames stay valid.
func decodePayloadExt(d *decoder) (traceID uint64, p *quant.Packed) {
	traceID = d.u64()
	if d.err == nil && d.off < len(d.buf) {
		p = d.packed()
	}
	return traceID, p
}

// ForwardReq carries the client's intermediate activations x_c
// (step 1 of §2.2).
type ForwardReq struct {
	Iter        int
	Batch, Seq  int
	Activations *tensor.Tensor

	// TraceID is the client iteration's trace context, propagated when
	// FeatureTraceContext was negotiated (VersionExt tail; absent on
	// the wire when zero).
	TraceID uint64

	// Packed carries the activations codec-compressed when
	// FeatureActivationCompression was negotiated; the base payload
	// then writes its tensor-absent marker. Appended to the ext tail
	// after TraceID, so an uncompressed frame stays byte-identical to
	// its pre-compression form.
	Packed *quant.Packed
}

// MsgType implements Message.
func (*ForwardReq) MsgType() MsgType { return TypeForwardReq }

func (m *ForwardReq) encode(e *encoder) {
	e.i64(int64(m.Iter))
	e.i64(int64(m.Batch))
	e.i64(int64(m.Seq))
	encodePayload(e, m.Activations, m.Packed)
}

func (m *ForwardReq) decode(d *decoder) {
	m.Iter = int(d.i64())
	m.Batch = int(d.i64())
	m.Seq = int(d.i64())
	m.Activations = d.tensor()
}

func (m *ForwardReq) extPresent() bool     { return m.TraceID != 0 || m.Packed != nil }
func (m *ForwardReq) encodeExt(e *encoder) { encodePayloadExt(e, m.TraceID, m.Packed) }
func (m *ForwardReq) decodeExt(d *decoder) { m.TraceID, m.Packed = decodePayloadExt(d) }

// ForwardResp returns the server activations x_s (step 2).
type ForwardResp struct {
	Iter        int
	Activations *tensor.Tensor

	// TraceID echoes the request's trace context back to the client.
	TraceID uint64

	// Packed: codec-compressed activations (see ForwardReq.Packed).
	Packed *quant.Packed
}

// MsgType implements Message.
func (*ForwardResp) MsgType() MsgType { return TypeForwardResp }

func (m *ForwardResp) encode(e *encoder) {
	e.i64(int64(m.Iter))
	encodePayload(e, m.Activations, m.Packed)
}

func (m *ForwardResp) decode(d *decoder) {
	m.Iter = int(d.i64())
	m.Activations = d.tensor()
}

func (m *ForwardResp) extPresent() bool     { return m.TraceID != 0 || m.Packed != nil }
func (m *ForwardResp) encodeExt(e *encoder) { encodePayloadExt(e, m.TraceID, m.Packed) }
func (m *ForwardResp) decodeExt(d *decoder) { m.TraceID, m.Packed = decodePayloadExt(d) }

// BackwardReq carries the client's gradients g_c at the upper cut
// (step 3). Apply=false accumulates the server-side adapter gradients
// without an optimizer step (gradient accumulation / micro-batching);
// Apply=true steps the optimizer with everything accumulated so far.
type BackwardReq struct {
	Iter      int
	Apply     bool
	Gradients *tensor.Tensor

	// TraceID is the client iteration's trace context (see ForwardReq).
	TraceID uint64

	// Packed: codec-compressed gradients (see ForwardReq.Packed).
	Packed *quant.Packed
}

// MsgType implements Message.
func (*BackwardReq) MsgType() MsgType { return TypeBackwardReq }

func (m *BackwardReq) encode(e *encoder) {
	e.i64(int64(m.Iter))
	e.bool(m.Apply)
	encodePayload(e, m.Gradients, m.Packed)
}

func (m *BackwardReq) decode(d *decoder) {
	m.Iter = int(d.i64())
	m.Apply = d.bool()
	m.Gradients = d.tensor()
}

func (m *BackwardReq) extPresent() bool     { return m.TraceID != 0 || m.Packed != nil }
func (m *BackwardReq) encodeExt(e *encoder) { encodePayloadExt(e, m.TraceID, m.Packed) }
func (m *BackwardReq) decodeExt(d *decoder) { m.TraceID, m.Packed = decodePayloadExt(d) }

// BackwardResp returns the server gradients g_s at the lower cut
// (step 4).
type BackwardResp struct {
	Iter      int
	Gradients *tensor.Tensor

	// TraceID echoes the request's trace context back to the client.
	TraceID uint64

	// Packed: codec-compressed gradients (see ForwardReq.Packed).
	Packed *quant.Packed
}

// MsgType implements Message.
func (*BackwardResp) MsgType() MsgType { return TypeBackwardResp }

func (m *BackwardResp) encode(e *encoder) {
	e.i64(int64(m.Iter))
	encodePayload(e, m.Gradients, m.Packed)
}

func (m *BackwardResp) decode(d *decoder) {
	m.Iter = int(d.i64())
	m.Gradients = d.tensor()
}

func (m *BackwardResp) extPresent() bool     { return m.TraceID != 0 || m.Packed != nil }
func (m *BackwardResp) encodeExt(e *encoder) { encodePayloadExt(e, m.TraceID, m.Packed) }
func (m *BackwardResp) decodeExt(d *decoder) { m.TraceID, m.Packed = decodePayloadExt(d) }

// Bye announces a clean client departure so the server releases the
// instance immediately.
type Bye struct{}

// MsgType implements Message.
func (*Bye) MsgType() MsgType { return TypeBye }

func (m *Bye) encode(*encoder) {}
func (m *Bye) decode(*decoder) {}

// ErrorMsg reports a server-side failure for the current request.
// Retryable errors (admission-control overload) leave the session
// intact: the server keeps the connection open and the client may
// resubmit the same request after RetryAfterMs.
type ErrorMsg struct {
	Reason string
	// Retryable marks a transient overload rejection rather than a
	// hard failure; RetryAfterMs carries the backoff hint.
	Retryable    bool
	RetryAfterMs int64
}

// MsgType implements Message.
func (*ErrorMsg) MsgType() MsgType { return TypeError }

func (m *ErrorMsg) encode(e *encoder) {
	e.str(m.Reason)
	e.bool(m.Retryable)
	e.i64(m.RetryAfterMs)
}

func (m *ErrorMsg) decode(d *decoder) {
	m.Reason = d.str()
	m.Retryable = d.bool()
	m.RetryAfterMs = d.i64()
}

// Interface conformance.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*HelloAck)(nil)
	_ Message = (*ForwardReq)(nil)
	_ Message = (*ForwardResp)(nil)
	_ Message = (*BackwardReq)(nil)
	_ Message = (*BackwardResp)(nil)
	_ Message = (*Bye)(nil)
	_ Message = (*ErrorMsg)(nil)

	_ extMessage = (*Hello)(nil)
	_ extMessage = (*HelloAck)(nil)
	_ extMessage = (*ForwardReq)(nil)
	_ extMessage = (*ForwardResp)(nil)
	_ extMessage = (*BackwardReq)(nil)
	_ extMessage = (*BackwardResp)(nil)
)

// MigrateMsg redirects the client to another server. Sent in place of
// a ForwardResp when the control plane has moved the session (the
// displaced ForwardReq is replayed against the target, so the
// iteration is not lost), and only on sessions that negotiated
// FeatureMigration. Target is the new server's dial address; Token
// must be presented in the redial's Hello.ResumeToken so the target
// can match the connection to the staged session snapshot.
type MigrateMsg struct {
	Target string
	Token  uint64
}

// MsgType implements Message.
func (*MigrateMsg) MsgType() MsgType { return TypeMigrate }

func (m *MigrateMsg) encode(e *encoder) {
	e.str(m.Target)
	e.u64(m.Token)
}

func (m *MigrateMsg) decode(d *decoder) {
	m.Target = d.str()
	m.Token = d.u64()
}

// Interface conformance.
var _ Message = (*MigrateMsg)(nil)
