package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/tensor"
)

// TestEndToEndTracePropagation runs a loopback deployment with tracers
// on both sides and checks the tentpole property: the server's sched
// and compute spans for iteration i carry the exact trace ID the
// client minted for its iteration-i span, and the two tracers merge
// into one Chrome trace correlated by those IDs.
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
	c, err := client.Dial(dep.Addr(), client.Config{
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
