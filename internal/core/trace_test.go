package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"testing"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/split"
	"menos/internal/tensor"
)

// spanKey is what a span-sequence pin compares of a span.
type spanKey struct{ name, cat string }

// spanKeys lists the spans of tracer on track with trace ID tid, in
// record order.
func spanKeys(tracer *obs.Tracer, track string, tid uint64) []spanKey {
	var out []spanKey
	for _, sp := range tracer.Spans() {
		if sp.Track == track && sp.TraceID == tid {
			out = append(out, spanKey{sp.Name, sp.Cat})
		}
	}
	return out
}

// backwardHookConn runs beforeBackward, when set, right before the
// client writes a BackwardReq frame: WriteMessage issues one Write per
// frame, with the message type at byte 3 of the header.
type backwardHookConn struct {
	net.Conn
	beforeBackward func()
}

func (c *backwardHookConn) Write(p []byte) (int, error) {
	if c.beforeBackward != nil && split.MsgType(p[3]) == split.TypeBackwardReq {
		c.beforeBackward()
	}
	return c.Conn.Write(p)
}

// TestEndToEndTracePropagation runs a loopback deployment with tracers
// on both sides and checks the tentpole property: the server's sched
// and compute spans for iteration i carry the exact trace ID the
// client minted for its iteration-i span, and the two tracers merge
// into one Chrome trace correlated by those IDs. It also pins the span
// story of one iteration on each side, and of a step whose parked
// activation cache is revoked before its backward.
func TestEndToEndTracePropagation(t *testing.T) {
	serverTr := obs.NewTracer(obs.NewWallClock())
	serverTr.SetProcess(1, "menos-server")
	dep, err := NewDeployment(DeploymentConfig{
		Model:      model.OPTTiny(),
		WeightSeed: 5,
		Tracer:     serverTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	clientTr := obs.NewTracer(obs.NewWallClock())
	clientTr.SetProcess(2, "menos-client")
	conn, err := net.Dial("tcp", dep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hooked := &backwardHookConn{Conn: conn}
	c, err := client.New(hooked, client.Config{
		ClientID:    "tracee",
		Model:       model.OPTTiny(),
		WeightSeed:  5,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 1,
		Batch:       1,
		Seq:         8,
		Tracer:      clientTr,
	})
	if err != nil {
		_ = conn.Close()
		t.Fatal(err)
	}
	defer c.Close()
	if !c.TraceNegotiated() {
		t.Fatal("trace context not negotiated on a tracer-to-tracer connection")
	}

	r := tensor.NewRNG(2)
	ids := make([]int, 8)
	targets := make([]int, 8)
	for i := range ids {
		ids[i] = r.Intn(model.OPTTiny().Vocab)
		targets[i] = r.Intn(model.OPTTiny().Vocab)
	}
	const iters = 3
	for i := 0; i < iters; i++ {
		if _, err := c.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
	}
	// One more step, whose parked cache another request takes back
	// between the forward and the backward: the backward then waits for
	// a fresh grant and re-forwards.
	sch := dep.Server.Scheduler()
	hooked.beforeBackward = func() {
		if err := sch.Submit("revoker", sched.KindForward, sch.Available(), func() {}); err != nil {
			t.Errorf("revoking submission: %v", err)
		}
		sch.Complete("revoker")
		hooked.beforeBackward = nil
	}
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
	if st := sch.Stats(); st.Revoked != 1 {
		t.Fatalf("revocations = %d, want 1", st.Revoked)
	}

	clientIter := []spanKey{
		{"input-forward", "compute"}, {"forward-rtt", "comm"}, {"output-loss", "compute"},
		{"backward-rtt", "comm"}, {"input-backward", "compute"}, {"iteration", "iter"},
	}
	for _, pin := range []struct {
		what   string
		tracer *obs.Tracer
		tid    uint64
		want   []spanKey
	}{
		{"client, kept cache", clientTr, obs.IterTraceID("tracee", 0), clientIter},
		{"client, revoked cache", clientTr, obs.IterTraceID("tracee", iters), clientIter},
		{"server handshake", serverTr, 0, []spanKey{{"admit", "admission"}}},
		{"server, kept cache", serverTr, obs.IterTraceID("tracee", 0), []spanKey{
			{"wait:forward", "sched"}, {"forward", "compute"}, {"park", "release"},
			{"backward", "compute"}, {"release", "release"}, {"optimizer", "compute"},
		}},
		{"server, revoked cache", serverTr, obs.IterTraceID("tracee", iters), []spanKey{
			{"wait:forward", "sched"}, {"forward", "compute"}, {"park", "release"},
			{"wait:backward", "sched"}, {"refwd", "recompute"}, {"backward", "compute"},
			{"release", "release"}, {"optimizer", "compute"},
		}},
	} {
		if got := spanKeys(pin.tracer, "tracee", pin.tid); !slices.Equal(got, pin.want) {
			t.Errorf("%s: spans %v, want %v", pin.what, got, pin.want)
		}
	}

	// Every iteration's deterministic ID must appear on the client's
	// iteration span AND on the server's sched + compute spans.
	clientIDs := map[uint64]bool{}
	for _, sp := range clientTr.Spans() {
		if sp.Cat == "iter" {
			clientIDs[sp.TraceID] = true
		}
	}
	serverSched := map[uint64]bool{}
	serverComp := map[uint64]bool{}
	for _, sp := range serverTr.Spans() {
		switch sp.Cat {
		case "sched":
			serverSched[sp.TraceID] = true
		case "compute":
			serverComp[sp.TraceID] = true
		}
	}
	for i := 0; i < iters; i++ {
		tid := obs.IterTraceID("tracee", i)
		if !clientIDs[tid] {
			t.Errorf("iter %d: client iteration span missing trace ID %016x", i, tid)
		}
		if !serverSched[tid] {
			t.Errorf("iter %d: no server sched span carries trace ID %016x", i, tid)
		}
		if !serverComp[tid] {
			t.Errorf("iter %d: no server compute span carries trace ID %016x", i, tid)
		}
	}

	// The merged Chrome trace holds both processes and correlates spans
	// from both pids under each iteration's trace ID.
	var buf bytes.Buffer
	if err := obs.WriteMergedChromeTrace(&buf, clientTr, serverTr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pidsByTID := map[string]map[int]bool{}
	procNames := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.Pid] = true
		}
		if tid, ok := ev.Args["trace_id"].(string); ok {
			if pidsByTID[tid] == nil {
				pidsByTID[tid] = map[int]bool{}
			}
			pidsByTID[tid][ev.Pid] = true
		}
	}
	if !procNames[1] || !procNames[2] {
		t.Fatalf("merged trace missing process_name metadata: %v", procNames)
	}
	for i := 0; i < iters; i++ {
		key := fmt.Sprintf("%016x", obs.IterTraceID("tracee", i))
		if pids := pidsByTID[key]; !pids[1] || !pids[2] {
			t.Errorf("iter %d: trace ID %s not present in both processes (pids %v)", i, key, pids)
		}
	}
}

// TestTraceNegotiationRequiresBothSides: a client with a tracer against
// a server without one must still work — the feature is not granted and
// the wire stays version-1 clean (TraceNegotiated is false).
func TestTraceNegotiationRequiresBothSides(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	clientTr := obs.NewTracer(obs.NewWallClock())
	c, err := client.Dial(dep.Addr(), client.Config{
		ClientID:    "plain",
		Model:       model.OPTTiny(),
		WeightSeed:  5,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 1,
		Batch:       1,
		Seq:         8,
		Tracer:      clientTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.TraceNegotiated() {
		t.Fatal("trace context negotiated against a tracerless server")
	}
	r := tensor.NewRNG(2)
	ids := make([]int, 8)
	targets := make([]int, 8)
	for i := range ids {
		ids[i] = r.Intn(model.OPTTiny().Vocab)
		targets[i] = r.Intn(model.OPTTiny().Vocab)
	}
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
	// The client still records local iteration spans with IDs; they are
	// just never sent on the wire.
	found := false
	for _, sp := range clientTr.Spans() {
		if sp.Cat == "iter" && sp.TraceID == obs.IterTraceID("plain", 0) {
			found = true
		}
	}
	if !found {
		t.Fatal("client iteration span missing without negotiation")
	}
}
