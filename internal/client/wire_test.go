package client_test

import (
	"bytes"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"menos/internal/client"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/server"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
)

// startWireServer is startServer with a wire codec and a metrics
// registry, so the tests can read the server side of the transport
// counters.
func startWireServer(t *testing.T, codec quant.Codec) (string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	store, err := share.NewStore(tensor.NewRNG(weightSeed), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store, Metrics: reg, WireCodec: codec})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String(), reg
}

// runTraining runs a full OPTTiny fine-tuning loop over a fresh
// server/client pair with the given codec on both sides, returning the
// per-step losses, the final client adapter checkpoint, and both
// registries.
func runTraining(t *testing.T, serverCodec, clientCodec quant.Codec, steps int) ([]float64, []byte, *obs.Registry, *obs.Registry) {
	t.Helper()
	addr, sreg := startWireServer(t, serverCodec)
	creg := obs.NewRegistry()
	cfg := validCfg("wire-run")
	cfg.Metrics = creg
	cfg.WireCodec = clientCodec
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The same batch every step: memorization drives the loss down, so
	// convergence (and cross-codec parity of the optimum) is testable.
	ids, targets := batch(16, 100)
	losses := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		res, err := c.Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, res.Loss)
	}
	var buf bytes.Buffer
	if err := c.SaveAdapter(&buf); err != nil {
		t.Fatal(err)
	}
	return losses, buf.Bytes(), sreg, creg
}

// TestWireCompressionNegotiation: the feature only turns on when both
// peers are configured for it, and negotiation failure means plain fp32
// frames, not an error.
func TestWireCompressionNegotiation(t *testing.T) {
	cases := []struct {
		name           string
		server, client quant.Codec
		want           bool
	}{
		{"both int8", quant.CodecInt8, quant.CodecInt8, true},
		{"mixed codecs", quant.CodecFP16, quant.CodecInt8, true},
		{"server off", quant.CodecFP32, quant.CodecInt8, false},
		{"client off", quant.CodecInt8, quant.CodecFP32, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := startWireServer(t, tc.server)
			cfg := validCfg("nego")
			cfg.WireCodec = tc.client
			c, err := client.Dial(addr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := client.CompressionNegotiated(c); got != tc.want {
				t.Fatalf("negotiated = %v, want %v", got, tc.want)
			}
			// Whatever was negotiated, training works.
			ids, targets := batch(16, 42)
			if _, err := c.Step(ids, targets); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWireConvergenceParity is the acceptance gate for lossy transport:
// a full OPTTiny run converges to (near) the same final loss whether
// the activations crossed the wire in fp32, fp16 or int8 — and the
// fp32 path is bit-identical whether or not the server could have
// compressed, because an un-negotiated session never quantizes.
func TestWireConvergenceParity(t *testing.T) {
	const steps = 12
	fp32, adapter32, _, c32 := runTraining(t, quant.CodecFP32, quant.CodecFP32, steps)
	fp16, _, _, _ := runTraining(t, quant.CodecFP16, quant.CodecFP16, steps)
	int8, _, _, _ := runTraining(t, quant.CodecInt8, quant.CodecInt8, steps)

	if fp32[steps-1] >= fp32[0] {
		t.Fatalf("fp32 run did not converge: %v -> %v", fp32[0], fp32[steps-1])
	}
	if got := c32.Counter(obs.MetricWireCompressedBytes).Value(); got != 0 {
		t.Fatalf("fp32 run compressed %d bytes", got)
	}
	// fp16 keeps ~3 decimal digits of the activations; int8 is the
	// aggressive end. Both must land within tolerance of the fp32 loss.
	if d := math.Abs(fp16[steps-1] - fp32[steps-1]); d > 0.02 {
		t.Fatalf("fp16 final loss off by %v (fp32 %v, fp16 %v)", d, fp32[steps-1], fp16[steps-1])
	}
	if d := math.Abs(int8[steps-1] - fp32[steps-1]); d > 0.1 {
		t.Fatalf("int8 final loss off by %v (fp32 %v, int8 %v)", d, fp32[steps-1], int8[steps-1])
	}

	// fp32 over a compression-capable server (client declines): every
	// loss and the final adapter are bit-identical to the plain run —
	// the negotiation gate, not luck, keeps the fp32 path exact.
	declined, adapterDeclined, _, cd := runTraining(t, quant.CodecInt8, quant.CodecFP32, steps)
	for i := range fp32 {
		if fp32[i] != declined[i] {
			t.Fatalf("step %d: fp32 loss %v != declined-compression loss %v", i, fp32[i], declined[i])
		}
	}
	if !bytes.Equal(adapter32, adapterDeclined) {
		t.Fatal("fp32 adapter checkpoints differ across server codec configs")
	}
	if got := cd.Counter(obs.MetricWireCompressedBytes).Value(); got != 0 {
		t.Fatalf("declined-compression run compressed %d bytes", got)
	}
}

// TestWireByteSavings pins the acceptance criterion: int8 transport
// moves at least 60% fewer payload bytes than the fp32 equivalent, on
// both directions of the wire.
func TestWireByteSavings(t *testing.T) {
	_, _, sreg, creg := runTraining(t, quant.CodecInt8, quant.CodecInt8, 3)
	for _, side := range []struct {
		name string
		reg  *obs.Registry
	}{{"client", creg}, {"server", sreg}} {
		compressed := side.reg.Counter(obs.MetricWireCompressedBytes).Value()
		raw := side.reg.Counter(obs.MetricWireRawBytes).Value()
		if compressed == 0 || raw == 0 {
			t.Fatalf("%s: no transport bytes recorded (compressed %d, raw %d)", side.name, compressed, raw)
		}
		if float64(compressed) > 0.4*float64(raw) {
			t.Fatalf("%s: compressed %dB not <=40%% of raw %dB", side.name, compressed, raw)
		}
		if side.reg.Histogram(obs.MetricWireCodecSeconds, nil).Count() == 0 {
			t.Fatalf("%s: codec time not observed", side.name)
		}
	}
}

// recordingConn keeps every byte the client writes to the connection.
type recordingConn struct {
	net.Conn
	tx bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.tx.Write(p)
	return c.Conn.Write(p)
}

// dialRecorded is client.Dial over a recordingConn.
func dialRecorded(t *testing.T, addr string, cfg client.Config) (*client.Client, *recordingConn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingConn{Conn: conn}
	c, err := client.New(rec, cfg)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return c, rec
}

// TestStepPipelinedMatchesSequential: the double-buffered schedule is a
// pure latency optimization — at fp32 every per-microbatch loss and the
// final adapter state are bit-identical to the sequential MicroStep
// loop, because the server processes a connection's requests in order
// and the client only moves gradient-free work across the overlap.
// Step, MicroStep and StepPipelined are one engine, so the two clients
// also put the very same bytes on the wire, and a plain Step is exactly
// a one-microbatch StepPipelined.
func TestStepPipelinedMatchesSequential(t *testing.T) {
	const groups, micros = 3, 4
	mbs := func(group int) []client.MicroBatch {
		out := make([]client.MicroBatch, micros)
		for i := range out {
			ids, targets := batch(16, uint64(1000+group*micros+i))
			out[i] = client.MicroBatch{IDs: ids, Targets: targets}
		}
		return out
	}
	// The run ends with one single-microbatch group: Step on one side,
	// StepPipelined of one on the other.
	lastIDs, lastTargets := batch(16, 1999)

	// Sequential reference. Both clients share an ID (on separate
	// servers) so their handshakes are the same bytes too.
	addrA, _ := startWireServer(t, quant.CodecFP32)
	sreg := obs.NewRegistry()
	cfg := validCfg("pipe")
	cfg.Metrics = sreg
	seq, seqConn := dialRecorded(t, addrA, cfg)
	defer seq.Close()
	var seqLosses []float64
	seqStart := time.Now()
	for g := 0; g < groups; g++ {
		for i, mb := range mbs(g) {
			res, err := seq.MicroStep(mb.IDs, mb.Targets, i == micros-1)
			if err != nil {
				t.Fatal(err)
			}
			seqLosses = append(seqLosses, res.Loss)
		}
	}
	seqElapsed := time.Since(seqStart)
	res, err := seq.Step(lastIDs, lastTargets)
	if err != nil {
		t.Fatal(err)
	}
	seqLosses = append(seqLosses, res.Loss)
	var seqAdapter bytes.Buffer
	if err := seq.SaveAdapter(&seqAdapter); err != nil {
		t.Fatal(err)
	}

	// Pipelined run against a fresh server with identical state.
	addrB, _ := startWireServer(t, quant.CodecFP32)
	creg := obs.NewRegistry()
	cfg.Metrics = creg
	pipe, pipeConn := dialRecorded(t, addrB, cfg)
	defer pipe.Close()
	var pipeLosses []float64
	pipeStart := time.Now()
	for g := 0; g < groups; g++ {
		results, err := pipe.StepPipelined(mbs(g))
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			pipeLosses = append(pipeLosses, res.Loss)
		}
	}
	pipeElapsed := time.Since(pipeStart)
	results, err := pipe.StepPipelined([]client.MicroBatch{{IDs: lastIDs, Targets: lastTargets}})
	if err != nil {
		t.Fatal(err)
	}
	pipeLosses = append(pipeLosses, results[0].Loss)
	var pipeAdapter bytes.Buffer
	if err := pipe.SaveAdapter(&pipeAdapter); err != nil {
		t.Fatal(err)
	}

	if len(seqLosses) != len(pipeLosses) {
		t.Fatalf("microbatch counts differ: %d vs %d", len(seqLosses), len(pipeLosses))
	}
	for i := range seqLosses {
		if seqLosses[i] != pipeLosses[i] {
			t.Fatalf("microbatch %d: sequential loss %v != pipelined %v", i, seqLosses[i], pipeLosses[i])
		}
	}
	if !bytes.Equal(seqAdapter.Bytes(), pipeAdapter.Bytes()) {
		t.Fatal("adapter state diverged between sequential and pipelined stepping")
	}
	if !bytes.Equal(seqConn.tx.Bytes(), pipeConn.tx.Bytes()) {
		t.Fatalf("sequential and pipelined clients wrote different byte streams (%d vs %d bytes)",
			seqConn.tx.Len(), pipeConn.tx.Len())
	}
	// Hidden time is observed only where another microbatch really was
	// in flight: twice per microbatch boundary inside a group, never by
	// Step/MicroStep or a one-microbatch group.
	if h := creg.Histogram(obs.MetricOverlapHiddenSeconds, nil); h.Count() == 0 {
		t.Fatal("pipelined run observed no hidden overlap time")
	} else if want := int64(groups * 2 * (micros - 1)); h.Count() != want {
		t.Fatalf("pipelined run observed %d hidden-time samples, want %d", h.Count(), want)
	}
	if n := sreg.Histogram(obs.MetricOverlapHiddenSeconds, nil).Count(); n != 0 {
		t.Fatalf("Step/MicroStep published %d overlap samples, want none", n)
	}
	// Loopback has almost nothing to hide, so only a gross regression
	// is flagged: the pipeline must not be meaningfully slower than the
	// sequential loop (the simulator sweep asserts the real speedup).
	if pipeElapsed > 2*seqElapsed+100*time.Millisecond {
		t.Fatalf("pipelined run %v much slower than sequential %v", pipeElapsed, seqElapsed)
	}
}

// TestStepPipelinedCompressed composes the two tentpole halves: a
// pipelined int8 run trains end to end and still moves fewer bytes.
func TestStepPipelinedCompressed(t *testing.T) {
	addr, _ := startWireServer(t, quant.CodecInt8)
	creg := obs.NewRegistry()
	cfg := validCfg("pipe-int8")
	cfg.Metrics = creg
	cfg.WireCodec = quant.CodecInt8
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !client.CompressionNegotiated(c) {
		t.Fatal("compression not negotiated")
	}
	mb := make([]client.MicroBatch, 3)
	for i := range mb {
		ids, targets := batch(16, uint64(2000+i))
		mb[i] = client.MicroBatch{IDs: ids, Targets: targets}
	}
	var first, last float64
	for g := 0; g < 6; g++ {
		results, err := c.StepPipelined(mb)
		if err != nil {
			t.Fatal(err)
		}
		// Track the same microbatch's loss across groups so the
		// comparison sees learning, not data variation.
		if g == 0 {
			first = results[0].Loss
		}
		last = results[0].Loss
	}
	if math.IsNaN(last) || last >= first {
		t.Fatalf("compressed pipelined run did not converge: %v -> %v", first, last)
	}
	compressed := creg.Counter(obs.MetricWireCompressedBytes).Value()
	raw := creg.Counter(obs.MetricWireRawBytes).Value()
	if compressed == 0 || float64(compressed) > 0.4*float64(raw) {
		t.Fatalf("pipelined compression ineffective: %dB of %dB", compressed, raw)
	}
}

// TestStepPipelinedValidation: bad microbatch geometry and empty
// pipelines fail fast without touching the wire.
func TestStepPipelinedValidation(t *testing.T) {
	addr, _ := startWireServer(t, quant.CodecFP32)
	c, err := client.Dial(addr, validCfg("pipe-bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.StepPipelined(nil); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := c.StepPipelined([]client.MicroBatch{{IDs: []int{1}, Targets: []int{1}}}); err == nil {
		t.Fatal("short microbatch accepted")
	}
}

// TestCompressedClientRedialsLegacyServer pins the interop contract: a
// compression-enabled client whose extended hello makes a version-1
// server hang up redials once with the offer withdrawn and completes a
// plain handshake.
func TestCompressedClientRedialsLegacyServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for dial := 0; ; dial++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Read one frame header the way a version-1 peer would: an
			// unknown version is a protocol error, hang up mid-handshake.
			header := make([]byte, 8)
			if _, err := io.ReadFull(conn, header); err != nil {
				conn.Close()
				continue
			}
			if header[2] != split.Version {
				conn.Close()
				continue
			}
			// Plain version-1 hello: drain the payload and ack with no
			// features, like a pre-extension server.
			n := int(uint32(header[4]) | uint32(header[5])<<8 | uint32(header[6])<<16 | uint32(header[7])<<24)
			if _, err := io.CopyN(io.Discard, conn, int64(n)); err != nil {
				conn.Close()
				continue
			}
			_ = split.WriteMessage(conn, &split.HelloAck{OK: true, ForwardBytes: 1, BackwardBytes: 2})
			// Keep the session open until the client hangs up.
			_, _ = split.ReadMessage(conn)
			conn.Close()
		}
	}()

	cfg := validCfg("legacy")
	cfg.WireCodec = quant.CodecInt8
	c, err := client.Dial(l.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("compression-enabled client failed against legacy server: %v", err)
	}
	defer c.Close()
	if client.CompressionNegotiated(c) {
		t.Fatal("legacy server cannot have negotiated compression")
	}
}

// TestNoGradForwardsArePacked: Evaluate and Generate send their
// ForwardReq the way a training step does, so on an int8 session the
// upload is a Packed payload, not fp32 activations.
func TestNoGradForwardsArePacked(t *testing.T) {
	addr, _ := startWireServer(t, quant.CodecInt8)
	cfg := validCfg("eval-int8")
	cfg.WireCodec = quant.CodecInt8
	c, rec := dialRecorded(t, addr, cfg)
	defer c.Close()
	if !client.CompressionNegotiated(c) {
		t.Fatal("compression not negotiated")
	}
	ids, targets := batch(16, 300)
	if _, err := c.Evaluate(ids, targets); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Generate(tensor.NewRNG(1), ids[:4], 1, 0); err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(rec.tx.Bytes())
	if msg, err := split.ReadMessage(r); err != nil || msg.MsgType() != split.TypeHello {
		t.Fatalf("first frame = %v, %v; want the hello", msg, err)
	}
	for i, want := range []struct{ batch, seq int }{{2, 8}, {1, 4}} {
		msg, err := split.ReadMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		req, ok := msg.(*split.ForwardReq)
		if !ok {
			t.Fatalf("frame %d is %v, want a ForwardReq", i+1, msg.MsgType())
		}
		if req.Packed == nil || req.Activations != nil {
			t.Fatalf("forward %d uploaded fp32 activations on an int8 session", i)
		}
		if req.Iter != i || req.Batch != want.batch || req.Seq != want.seq {
			t.Fatalf("forward %d = iter %d, %dx%d; want iter %d, %dx%d",
				i, req.Iter, req.Batch, req.Seq, i, want.batch, want.seq)
		}
	}
}
