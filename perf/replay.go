package main

import (
	"bytes"
	"fmt"
	"time"

	"menos/internal/adapter"
	"menos/internal/fleet"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/split"
	"menos/internal/tensor"
)

// The layer replay times direct calls into one layer's public functions
// at the workload's own shapes. It runs after the traced window, alone
// on the machine, so a layer's number is its cost without contention.

// replayBudget is how long each replayed operation is repeated for.
const replayBudget = 40 * time.Millisecond

// replayer carries the replay's inputs and collects its metrics.
type replayer struct {
	spec   *tcpSpec // nil on sim_fleet
	budget time.Duration
	m      map[string]float64
}

// perCall repeats fn for the budget, after one untimed call, and
// returns the mean seconds per call.
func (r *replayer) perCall(fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < r.budget {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start).Seconds() / float64(n), nil
}

// modelCut is the split every session uses: the client keeps block 0.
const modelCut = model.DefaultCut

// split encodes and decodes one step's four frames at the
// workload's activation shape and codec.
func (r *replayer) split() error {
	spec, m := r.spec, r.m
	rows := spec.Batch * spec.Seq
	act := tensor.NewNormal(tensor.NewRNG(11), 1, rows, spec.Model.Dim)
	var plain *tensor.Tensor
	var packed *quant.Packed
	if spec.Codec == quant.CodecFP32 {
		plain = act
	} else {
		var err error
		if packed, err = quant.Pack(act, spec.Codec); err != nil {
			return fmt.Errorf("pack: %w", err)
		}
	}
	frames := []split.Message{
		&split.ForwardReq{Iter: 1, Batch: spec.Batch, Seq: spec.Seq, Activations: plain, Packed: packed},
		&split.ForwardResp{Iter: 1, Activations: plain, Packed: packed},
		&split.BackwardReq{Iter: 1, Apply: true, Gradients: plain, Packed: packed},
		&split.BackwardResp{Iter: 1, Gradients: plain, Packed: packed},
	}
	var buf bytes.Buffer
	enc, err := r.perCall(func() error {
		buf.Reset()
		for _, f := range frames {
			if err := split.WriteMessage(&buf, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	dec, err := r.perCall(func() error {
		r := bytes.NewReader(wire)
		for range frames {
			if _, err := split.ReadMessage(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	n := float64(len(frames))
	m["split.encode_us_per_frame"] = enc * 1e6 / n
	m["split.decode_us_per_frame"] = dec * 1e6 / n
	m["split.frames_per_step"] = n
	m["split.payload_bytes_per_step"] = float64(len(wire))
	return nil
}

// quant packs and unpacks one activation tensor. A workload on
// fp32 frames makes no such call (quant.tensors_per_step is 0); the
// cost is then measured at int8 as what compression would add.
func (r *replayer) quant() error {
	spec, m := r.spec, r.m
	codec := spec.Codec
	m["quant.tensors_per_step"] = 4
	if codec == quant.CodecFP32 {
		codec = quant.CodecInt8
		m["quant.tensors_per_step"] = 0
	}
	act := tensor.NewNormal(tensor.NewRNG(12), 1, spec.Batch*spec.Seq, spec.Model.Dim)
	var p *quant.Packed
	pack, err := r.perCall(func() error {
		var err error
		p, err = quant.Pack(act, codec)
		return err
	})
	if err != nil {
		return fmt.Errorf("pack: %w", err)
	}
	unpack, err := r.perCall(func() error {
		_, err := p.Unpack()
		return err
	})
	if err != nil {
		return fmt.Errorf("unpack: %w", err)
	}
	m["quant.pack_us_per_tensor"] = pack * 1e6
	m["quant.unpack_us_per_tensor"] = unpack * 1e6
	m["quant.packed_ratio"] = float64(p.WireBytes()) / float64(act.Bytes())
	return nil
}

// mmCall is one matmul shape of a step: dst(m,n) from an inner
// dimension k, made calls times per step.
type mmCall struct {
	fn      func(dst, a, b *tensor.Tensor) error
	a, b    [2]int
	m, k, n int
	calls   int
}

// matmulInventory lists the linear-layer matmuls of one step of a
// frozen-base LoRA(q,v) model: the client's block runs forward and
// backward once, every server block runs forward twice (no-grad, then
// the re-forward before backward) and backward once. Attention's
// per-head score products are left to model.body_*, and MatMulAccum is
// absent because nothing on the step path calls it.
func matmulInventory(spec *tcpSpec) []mmCall {
	cfg := spec.Model
	rows, d, f, v := spec.Batch*spec.Seq, cfg.Dim, cfg.FFN, cfg.Vocab
	rank := spec.Ranks[len(spec.Ranks)-1]
	fwd := modelCut + 2*(cfg.Layers-modelCut) // block forwards per step
	bwd := cfg.Layers                         // block backwards per step
	lora := 2                                 // adapted projections per block (q, v)
	mm := func(m, k, n, calls int) mmCall {   // dst = a(m,k) @ b(k,n)
		return mmCall{tensor.MatMul, [2]int{m, k}, [2]int{k, n}, m, k, n, calls}
	}
	mmT := func(m, k, n, calls int) mmCall { // dst = a(m,k) @ b(n,k)ᵀ
		return mmCall{tensor.MatMulT, [2]int{m, k}, [2]int{n, k}, m, k, n, calls}
	}
	mmTAcc := func(m, k, n, calls int) mmCall { // dst += a(k,m)ᵀ @ b(k,n)
		return mmCall{tensor.MatMulTAccum, [2]int{k, m}, [2]int{k, n}, m, k, n, calls}
	}
	return []mmCall{
		mm(rows, d, d, 4*fwd), mm(rows, d, f, fwd), mm(rows, f, d, fwd), mm(rows, d, v, 1),
		mm(rows, d, rank, lora*fwd), mm(rows, rank, d, lora*fwd),
		mmT(rows, d, d, 4*bwd), mmT(rows, f, d, bwd), mmT(rows, d, f, bwd), mmT(rows, v, d, 1),
		mmT(rows, d, rank, lora*bwd), mmT(rows, rank, d, lora*bwd),
		mmTAcc(rank, rows, d, lora*bwd), mmTAcc(d, rows, rank, lora*bwd),
	}
}

// matmul times the inventory; flops are computed from the shapes
// (2·m·k·n per call), not measured.
func (r *replayer) matmul() error {
	spec, m := r.spec, r.m
	rng := tensor.NewRNG(13)
	var seconds, flops float64
	for _, c := range matmulInventory(spec) {
		a := tensor.NewNormal(rng, 1, c.a[0], c.a[1])
		b := tensor.NewNormal(rng, 1, c.b[0], c.b[1])
		dst := tensor.New(c.m, c.n)
		per, err := r.perCall(func() error { return c.fn(dst, a, b) })
		if err != nil {
			return fmt.Errorf("matmul (%d,%d,%d): %w", c.m, c.k, c.n, err)
		}
		seconds += per * float64(c.calls)
		flops += 2 * float64(c.m) * float64(c.k) * float64(c.n) * float64(c.calls)
	}
	m["tensor.matmul_ms_per_step"] = seconds * 1e3
	m["tensor.flops_per_step"] = flops
	return nil
}

// loraBody builds the server's body over a frozen base with members
// LoRA adapters: one plainly injected, several stacked for per-row
// dispatch. It returns the body and each member's trainable parameters.
func loraBody(spec *tcpSpec, members int) (*model.BodySection, [][]nn.Param, error) {
	base, err := model.New(tensor.NewRNG(weightSeed), spec.Model)
	if err != nil {
		return nil, nil, err
	}
	base.SetFrozenBase(true)
	rows := spec.Batch * spec.Seq
	layers := make([][]*adapter.LoRALinear, members)
	params := make([][]nn.Param, members)
	memberRows := make([]int, members)
	targets := adapter.DefaultLoRA().Targets
	for k := range layers {
		cfg := adapter.DefaultLoRA()
		cfg.Rank = spec.Ranks[k%len(spec.Ranks)]
		blocks := model.ShallowCloneBlocks(base.Blocks[modelCut:])
		ad, err := adapter.InjectLoRA(tensor.NewRNG(uint64(40+k)), blocks, cfg)
		if err != nil {
			return nil, nil, err
		}
		if members == 1 {
			return model.Body(blocks), [][]nn.Param{ad.Params()}, nil
		}
		layers[k], params[k], memberRows[k] = ad.Layers(), ad.Params(), rows
	}
	blocks := model.ShallowCloneBlocks(base.Blocks[modelCut:])
	if _, err := adapter.InjectMultiLoRA(blocks, targets, layers, memberRows); err != nil {
		return nil, nil, err
	}
	return model.Body(blocks), params, nil
}

// bodyStep times the grad-enabled forward and the backward (with every
// member's optimizer step) of body over members stacked inputs.
func (r *replayer) bodyStep(body *model.BodySection, params [][]nn.Param) (fwd, bwd float64, err error) {
	spec, members := r.spec, len(params)
	rows := spec.Batch * spec.Seq * members
	rng := tensor.NewRNG(14)
	x := tensor.NewNormal(rng, 1, rows, spec.Model.Dim)
	dy := tensor.NewNormal(rng, 1, rows, spec.Model.Dim)
	opts := make([]nn.Optimizer, members)
	for k := range opts {
		opts[k] = nn.NewAdam(learningRate)
	}
	step := func() (f, b time.Duration, err error) {
		t0 := time.Now()
		_, cache, err := body.Forward(x, spec.Batch*members, spec.Seq, true)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err := body.Backward(cache, dy); err != nil {
			return 0, 0, err
		}
		for k, p := range params {
			if err := opts[k].Step(p); err != nil {
				return 0, 0, err
			}
			nn.ZeroGrads(p)
		}
		return t1.Sub(t0), time.Since(t1), nil
	}
	if _, _, err := step(); err != nil { // primes the scratch arena
		return 0, 0, err
	}
	var fwdTotal, bwdTotal time.Duration
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < r.budget; n++ {
		f, b, err := step()
		if err != nil {
			return 0, 0, err
		}
		fwdTotal += f
		bwdTotal += b
	}
	return fwdTotal.Seconds() / float64(n), bwdTotal.Seconds() / float64(n), nil
}

// model times the server body at one member's shape, and — on a
// batching workload — the same step stacked over every tenant beside
// the serial cost of the same members.
func (r *replayer) model() error {
	spec, m := r.spec, r.m
	body, params, err := loraBody(spec, 1)
	if err != nil {
		return fmt.Errorf("body: %w", err)
	}
	fwd, bwd, err := r.bodyStep(body, params)
	if err != nil {
		return fmt.Errorf("body step: %w", err)
	}
	m["model.body_fwd_ms"] = fwd * 1e3
	m["model.body_bwd_ms"] = bwd * 1e3
	if !spec.BatchPolicy.Enabled() {
		return nil
	}
	k := spec.BatchPolicy.MaxSize
	stacked, stackedParams, err := loraBody(spec, k)
	if err != nil {
		return fmt.Errorf("stacked body: %w", err)
	}
	sf, sb, err := r.bodyStep(stacked, stackedParams)
	if err != nil {
		return fmt.Errorf("stacked body step: %w", err)
	}
	m["adapter.multilora_ms_per_member"] = (sf + sb) * 1e3 / float64(k)
	m["adapter.serial_ms_per_member"] = (fwd + bwd) * 1e3
	return nil
}

// sched times an uncontended Submit → grant → Complete round trip
// on a fresh scheduler.
func (r *replayer) sched() error {
	m := r.m
	s := sched.New(1<<30, sched.PolicyFCFSBackfill)
	defer s.Close()
	granted := false
	per, err := r.perCall(func() error {
		granted = false
		if err := s.Submit("replay", sched.KindForward, 1<<20, func() { granted = true }); err != nil {
			return err
		}
		if !granted {
			return fmt.Errorf("uncontended request was not granted at once")
		}
		s.Complete("replay")
		return nil
	})
	if err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	m["sched.submit_grant_us"] = per * 1e6
	return nil
}

// place times one placement decision over a fleet of sim_fleet's
// size with uneven synthetic loads.
func (r *replayer) place() error {
	m := r.m
	loads := make([]fleet.ServerLoad, simServers)
	for i := range loads {
		loads[i] = fleet.ServerLoad{ID: i, Clients: (i * 7) % 32, QueueDepth: i % 3, CapacityBytes: 64 << 30}
	}
	placer := fleet.NewLeastLoaded()
	per, err := r.perCall(func() error {
		_, err := placer.Place(fleet.ClientInfo{ID: "replay"}, loads)
		return err
	})
	if err != nil {
		return fmt.Errorf("place: %w", err)
	}
	m["fleet.place_us_per_client"] = per * 1e6
	return nil
}
