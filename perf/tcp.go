package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/core"
	"menos/internal/data"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/server"
	"menos/internal/tensor"
)

const (
	// weightSeed is the model owner's seed; it is part of the program,
	// not of the workload's inputs, so -seed does not move it.
	weightSeed = 7
	// learningRate is high enough that loss on the 4.5 kB corpus falls
	// within a hundred steps, which the correctness gate checks.
	learningRate = 5e-3
	// int8LossTolerance is the final-loss gap internal/client/wire_test.go
	// pins between an int8 run and the fp32 run of the same seed.
	int8LossTolerance = 0.1
)

// runOpts sizes one run of a workload.
type runOpts struct {
	Seed uint64
	// Seconds is the length of the timed window.
	Seconds float64
	// Steps, when > 0, replaces the window by exactly this many timed
	// steps per session (tests, and runs whose whole loss sequence
	// must repeat).
	Steps int
	// Preflight is the step count per session of the reference run
	// whose losses the timed run must reproduce.
	Preflight int
	// SetupReps is how many set-ups setup_s is the median of.
	SetupReps int
	// Rec, when set, makes this the traced variant: half the window
	// runs untraced, half with spans recorded here, then the layer
	// replay; the report then carries the per-layer metrics.
	Rec *recorder
	// ReplayBudget is how long the traced run's layer replay repeats
	// each operation for.
	ReplayBudget time.Duration
	// SimClients is sim_fleet's client count.
	SimClients int
	// perturbStep, when > 0, corrupts the recorded loss of that step
	// (1-based) of session 0 — the test's proof that the gate notices.
	perturbStep int
}

// session is one client of the closed loop: it sends its next step only
// after the previous one returned.
type session struct {
	idx    int
	conn   *countConn
	cl     *client.Client
	loader *data.Loader

	losses     []float64 // every step, warm-up included, in order
	callMs     []float64 // timed calls, per-step (call ÷ micro-batches)
	callEnd    []time.Time
	comp, comm time.Duration
	steps      int // timed
	wireBytes  int64
	attempted  int
	failed     int
	end        time.Time
}

// rig is one deployment with every session handshaken.
type rig struct {
	dep      *core.Deployment
	sessions []*session

	newDeploymentS, dialS, setupS float64
	// persistentBytes is GPU memory held between iterations with every
	// session resident: the shared base on the device plus each
	// client's reservation (adapter, gradients, optimizer state,
	// process context) in the scheduler. Fig. 5's quantity.
	persistentBytes int64
	baseBytes       int64
}

// variant is what a reference run changes about a workload's set-up.
type variant struct {
	codec  quant.Codec
	policy sched.BatchPolicy
	reg    *obs.Registry
}

var corpusTokens = sync.OnceValues(func() ([]int, error) {
	text := data.Shakespeare()
	tok, err := data.NewCharTokenizer(text, perfMid().Vocab)
	if err != nil {
		return nil, fmt.Errorf("tokenizer: %w", err)
	}
	return tok.Encode(text)
})

// sessionOrder is the seed-derived order sessions dial in.
func sessionOrder(seed uint64, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := tensor.NewRNG(seed*2654435761 + 17)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// setupRig is the benchmark's set-up: core.NewDeployment start to last
// session handshaken.
func setupRig(spec *tcpSpec, seed uint64, v variant, rec *recorder) (*rig, error) {
	tokens, err := corpusTokens()
	if err != nil {
		return nil, err
	}
	shards, err := data.Partition(tokens, spec.Sessions)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	r := &rig{sessions: make([]*session, spec.Sessions)}
	start := time.Now()
	err = rec.timed("core.NewDeployment", "setup", func() error {
		r.dep, err = core.NewDeployment(core.DeploymentConfig{
			Model: spec.Model, WeightSeed: weightSeed,
			Batch: v.policy, WireCodec: v.codec, Metrics: v.reg,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.newDeploymentS = time.Since(start).Seconds()
	var addr string
	err = rec.timed("Deployment.Listen", "setup", func() error {
		addr, err = r.dep.Listen("127.0.0.1:0")
		return err
	})
	if err != nil {
		return nil, err
	}
	r.baseBytes = r.dep.Store.BaseParamBytes()
	dialStart := time.Now()
	for _, i := range sessionOrder(seed, spec.Sessions) {
		s := &session{idx: i}
		r.sessions[i] = s
		if s.loader, err = data.NewLoader(shards[i], spec.Batch, spec.Seq, seed*1299709+uint64(i)); err != nil {
			r.close()
			return nil, err
		}
		lora := adapter.DefaultLoRA()
		lora.Rank = spec.Ranks[i%len(spec.Ranks)]
		err = rec.timed("client.New", "setup", func() error {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return fmt.Errorf("dial %s: %w", addr, err)
			}
			s.conn = &countConn{Conn: conn}
			s.cl, err = client.New(s.conn, client.Config{
				ClientID: fmt.Sprintf("perf-%d", i), Model: spec.Model, WeightSeed: weightSeed,
				Adapter: adapter.LoRASpec(lora), AdapterSeed: seed*104729 + uint64(i) + 1,
				LR: learningRate, Batch: spec.Batch, Seq: spec.Seq, WireCodec: v.codec,
			})
			if err != nil {
				_ = conn.Close()
			}
			return err
		})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
	}
	r.setupS = time.Since(start).Seconds()
	r.dialS = time.Since(dialStart).Seconds() / float64(spec.Sessions)
	sch := r.dep.Server.Scheduler()
	r.persistentBytes = r.dep.Server.Device().Used() + sch.Total() - sch.Available()
	return r, nil
}

// close says Bye on every session, shuts the deployment down and waits
// for its serve loop to exit.
func (r *rig) close() {
	for _, s := range r.sessions {
		if s != nil && s.cl != nil {
			_ = s.cl.Close() // teardown of a finished run; nothing to report to
		}
	}
	if r.dep != nil {
		_ = r.dep.Close()
		_ = r.dep.Wait()
	}
}

// window is what the main goroutine measures around the timed steps.
type window struct {
	t0         time.Time
	wall       time.Duration
	stats0     server.Stats
	stats1     server.Stats
	mem0, mem1 runtime.MemStats
	gpuPeak    int64
}

// countTo returns a condition that holds n times.
func countTo(n int) func() bool {
	return func() bool { n--; return n >= 0 }
}

// drive runs every session: warm calls each, then — behind a barrier —
// the timed calls, either a fixed count or until the deadline.
func (r *rig) drive(spec *tcpSpec, warm, calls int, seconds float64, perturbStep int, rec *recorder) window {
	var w window
	var ready, done sync.WaitGroup
	startCh := make(chan struct{})
	var t0 time.Time
	ready.Add(len(r.sessions))
	done.Add(len(r.sessions))
	for _, s := range r.sessions {
		go func(s *session) {
			defer done.Done()
			ok := s.run(spec, rec, false, countTo(warm))
			ready.Done()
			<-startCh
			if !ok {
				return
			}
			time.Sleep(time.Duration(s.idx) * spec.Stagger)
			before := s.conn.total()
			more := countTo(calls)
			if calls == 0 {
				deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
				more = func() bool { return time.Now().Before(deadline) }
			}
			s.run(spec, rec, true, more)
			s.wireBytes = s.conn.total() - before
			s.end = time.Now()
		}(s)
	}
	ready.Wait()
	runtime.GC() // every window starts from a collected heap
	runtime.ReadMemStats(&w.mem0)
	w.stats0 = r.dep.Server.Stats()
	t0 = time.Now()
	close(startCh)
	done.Wait()
	end := t0
	for _, s := range r.sessions {
		if s.end.After(end) {
			end = s.end
		}
	}
	w.t0 = t0
	w.wall = end.Sub(t0)
	w.stats1 = r.dep.Server.Stats()
	runtime.ReadMemStats(&w.mem1)
	w.gpuPeak = r.dep.Server.Device().Peak()
	if perturbStep > 0 && perturbStep <= len(r.sessions[0].losses) {
		r.sessions[0].losses[perturbStep-1] += 1e-9
	}
	return w
}

// run issues calls while more() holds; timed calls feed the window's
// samples. It reports false once the session is unusable.
func (s *session) run(spec *tcpSpec, rec *recorder, timed bool, more func() bool) bool {
	micro := max(spec.Micro, 1)
	for more() {
		batches := make([]client.MicroBatch, micro)
		for m := range batches {
			batches[m].IDs, batches[m].Targets = s.loader.Next()
		}
		iter := len(s.losses)
		s.attempted += micro
		start := time.Now()
		var results []client.StepResult
		var err error
		if spec.Micro > 0 {
			results, err = s.cl.StepPipelined(batches)
		} else {
			var res client.StepResult
			res, err = s.cl.Step(batches[0].IDs, batches[0].Targets)
			results = []client.StepResult{res}
		}
		end := time.Now()
		if err != nil {
			s.failed += micro
			return false
		}
		var comp, comm time.Duration
		for _, res := range results {
			s.losses = append(s.losses, res.Loss)
			if math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
				s.failed++
			}
			comp += res.CompTime
			comm += res.CommTime
		}
		if rec != nil {
			// The call is the root span; its comp and comm children are
			// laid end to end from the totals the client reports.
			trace := fmt.Sprintf("s%d/i%d", s.idx, iter)
			root := rec.add("client.Step", trace, 0, start, end)
			rec.add("client.comp", trace, root, start, start.Add(comp))
			rec.add("client.comm", trace, root, start.Add(comp), start.Add(comp+comm))
		}
		if timed {
			s.callMs = append(s.callMs, float64(end.Sub(start).Nanoseconds())/1e6/float64(micro))
			s.callEnd = append(s.callEnd, end)
			s.comp += comp
			s.comm += comm
			s.steps += micro
		}
	}
	return true
}

// sliceSeconds is the length of the slices the detail block reports the
// window's throughput in: the series shows a run that a neighbour
// disturbed, or a session that slows as it ages, where the mean cannot.
const sliceSeconds = 0.5

// sliceRates counts the steps each whole slice of the window completed.
func sliceRates(sessions []*session, w window, micro int) []float64 {
	n := int(w.wall.Seconds() / sliceSeconds)
	counts := make([]float64, n)
	for _, s := range sessions {
		for _, end := range s.callEnd {
			if k := int(end.Sub(w.t0).Seconds() / sliceSeconds); k < n {
				counts[k] += float64(micro)
			}
		}
	}
	for k := range counts {
		counts[k] /= sliceSeconds
	}
	return counts
}

// lossChecksum folds the first n losses of every session, in session
// order, into one FNV-1a hash of their float64 bits.
func lossChecksum(sessions []*session, n int) (string, error) {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range sessions {
		if len(s.losses) < n {
			return "", fmt.Errorf("session %d finished %d steps, checksum needs %d", s.idx, len(s.losses), n)
		}
		for _, l := range s.losses[:n] {
			bits := math.Float64bits(l)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// tcpResult is one run of a TCP workload, before it is turned into
// named metrics.
type tcpResult struct {
	attempted, failed int
	steps             int
	samples           []float64 // per-step call times, ms, sorted
	sliceRates        []float64 // steps per second in each whole slice of the window, in time order
	wall              time.Duration
	wireBytes         int64
	setups            []float64
	gpuPerClient      float64
	checksum          string
	lossFirst         float64
	lossLast          float64
	violations        []string

	// Traced run only.
	traced *tracedWindow
	replay map[string]float64 // per-layer metrics from the layer replay
}

// tracedWindow carries what the per-layer metrics are computed from.
type tracedWindow struct {
	rig   *rig
	win   window
	steps int
	comp  time.Duration
	comm  time.Duration
	reg   *obs.Registry
}

// tally counts a finished rig's steps against attempted and failed.
func (res *tcpResult) tally(r *rig) {
	for _, s := range r.sessions {
		res.attempted += s.attempted
		res.failed += s.failed
	}
}

// runTCP measures one TCP workload: reference run, timed run, extra
// set-ups, and the correctness checks between them.
func runTCP(w workload, o runOpts) (*tcpResult, error) {
	spec := w.TCP
	res := &tcpResult{}
	micro := max(spec.Micro, 1)
	refCalls := (o.Preflight + micro - 1) / micro
	refSteps := refCalls * micro

	// Reference run: the same sessions on the plain path — fp32 frames,
	// no batch formation — for a fixed step count.
	ref, err := setupRig(spec, o.Seed, variant{}, nil)
	if err != nil {
		return nil, fmt.Errorf("reference set-up: %w", err)
	}
	res.setups = append(res.setups, ref.setupS)
	ref.drive(spec, 0, refCalls, 0, 0, nil)
	res.tally(ref)
	refSum, refErr := lossChecksum(ref.sessions, refSteps)
	refLosses := make([]float64, len(ref.sessions))
	for i, s := range ref.sessions {
		if len(s.losses) >= refSteps {
			refLosses[i] = s.losses[refSteps-1]
		}
	}
	ref.close()
	if refErr != nil {
		return nil, fmt.Errorf("reference run: %w", refErr)
	}

	main := variant{codec: spec.Codec, policy: spec.BatchPolicy}
	warm := spec.Warmup
	if o.Steps > 0 {
		warm = min(warm, o.Steps) // a short fixed-count run warms up no longer than it runs
	}
	measure := func(v variant, seconds float64, rec *recorder) (*rig, window, error) {
		r, err := setupRig(spec, o.Seed, v, rec)
		if err != nil {
			return nil, window{}, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, r.setupS)
		win := r.drive(spec, (warm+micro-1)/micro, (o.Steps+micro-1)/micro, seconds, o.perturbStep, rec)
		_ = rec.timed("Close", "teardown", func() error { r.close(); return nil })
		return r, win, nil
	}
	seconds := o.Seconds
	if o.Rec != nil {
		seconds /= 2 // the window is shared by an untraced and a traced half
	}
	r, win, err := measure(main, seconds, nil)
	if err != nil {
		return nil, err
	}
	res.wall = win.wall
	res.tally(r)
	for _, s := range r.sessions {
		res.steps += s.steps
		res.wireBytes += s.wireBytes
		res.samples = append(res.samples, s.callMs...)
	}
	if res.steps == 0 {
		return nil, errors.New("the timed window completed no step")
	}
	sort.Float64s(res.samples)
	res.sliceRates = sliceRates(r.sessions, win, micro)
	res.gpuPerClient = float64(r.persistentBytes) / float64(spec.Sessions)
	res.check(spec, r, refSum, refLosses, refSteps)

	if rec := o.Rec; rec != nil {
		traced := main
		traced.reg = obs.NewRegistry()
		tr, twin, err := measure(traced, seconds, rec)
		if err != nil {
			return nil, err
		}
		t := &tracedWindow{rig: tr, win: twin, reg: traced.reg}
		res.tally(tr)
		for _, s := range tr.sessions {
			t.steps += s.steps
			t.comp += s.comp
			t.comm += s.comm
		}
		if t.steps == 0 {
			return nil, errors.New("the traced window completed no step")
		}
		res.traced = t
		rp := &replayer{spec: spec, budget: o.ReplayBudget, m: map[string]float64{}}
		res.replay = rp.m
		for _, layer := range []struct {
			name string
			fn   func() error
		}{{"split", rp.split}, {"quant", rp.quant}, {"tensor", rp.matmul}, {"model", rp.model}, {"sched", rp.sched}} {
			if err := rec.timed("replay."+layer.name, "replay", layer.fn); err != nil {
				res.violations = append(res.violations, "replay "+layer.name+": "+err.Error())
			}
		}
	}

	for len(res.setups) < o.SetupReps {
		extra, err := setupRig(spec, o.Seed, main, nil)
		if err != nil {
			return nil, fmt.Errorf("extra set-up: %w", err)
		}
		res.setups = append(res.setups, extra.setupS)
		extra.close()
	}
	return res, nil
}

// check is the correctness gate of a TCP workload.
func (res *tcpResult) check(spec *tcpSpec, r *rig, refSum string, refLosses []float64, refSteps int) {
	fail := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}
	sum, err := lossChecksum(r.sessions, refSteps)
	if err != nil {
		fail("%v", err)
		return
	}
	res.checksum = sum
	if spec.Codec == quant.CodecFP32 {
		// Same seed, same arithmetic: the losses repeat bit for bit,
		// batched or not (docs/BATCHING.md).
		if sum != refSum {
			fail("loss_checksum %s differs from the reference run's %s", sum, refSum)
		}
	} else {
		for i, s := range r.sessions {
			if d := math.Abs(s.losses[refSteps-1] - refLosses[i]); d > int8LossTolerance {
				fail("session %d: compressed loss at step %d is %.4f from fp32 (tolerance %.2f)", i, refSteps, d, int8LossTolerance)
			}
		}
	}
	// Loss must fall: the mean over the last tenth of every session's
	// steps below the mean over the first tenth.
	var first, last float64
	for _, s := range r.sessions {
		k := max(len(s.losses)/10, 1)
		first += mean(s.losses[:k])
		last += mean(s.losses[len(s.losses)-k:])
	}
	res.lossFirst = first / float64(len(r.sessions))
	res.lossLast = last / float64(len(r.sessions))
	if !(res.lossLast < res.lossFirst) {
		fail("loss did not fall: first tenth %.4f, last tenth %.4f", res.lossFirst, res.lossLast)
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
