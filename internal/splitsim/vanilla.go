package splitsim

import (
	"fmt"
	"time"

	"menos/internal/costmodel"
	"menos/internal/gpu"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sim"
)

// vanillaTask is one client's replica as the residency manager sees it.
type vanillaTask struct {
	owner string // device-set owner of the replica
	// residentBytes is the on-GPU working set (replica + states +
	// preserved activations); swapBytes is what actually moves over
	// PCIe on eviction (model + states — activations are discarded at
	// iteration end and rebuilt), taking swapTime.
	residentBytes int64
	swapBytes     int64
	swapTime      time.Duration

	resident bool
	allocID  gpu.AllocID // reserved at eviction time while queued

	// Queued for residency: signal wakes the task once memory is
	// reserved for it, then it swaps in and runs then. id names the
	// wait in a deadlock report.
	res               *residency
	id                string
	signal            *sim.Signal
	then              func()
	swapIn, swappedIn func()
}

// residency implements the paper's comparison baseline (§5.1): the
// server hosts every client's full replica if memory allows; when
// capacity is exceeded, tasks are swapped out of GPU memory at the end
// of each iteration so queued clients can be served.
//
// Memory is reserved for the waiter at eviction time (before it pays
// the swap transfer), so a racing client cannot steal the freed slot.
type residency struct {
	kernel  *sim.Kernel
	devices *gpu.DeviceSet
	queue   []*vanillaTask

	// swapOps/swapTraffic count swap-in transfers (nil-safe handles;
	// zero value means un-instrumented).
	swapOps     *obs.Counter
	swapTraffic *obs.Counter
}

// ensure makes t resident and runs then: at once when it already is or
// memory is free, otherwise after queueing for a reservation and paying
// the swap-in.
func (r *residency) ensure(t *vanillaTask, then func()) {
	if t.resident {
		then()
		return
	}
	// FIFO fairness: only claim memory directly when nobody is queued.
	if len(r.queue) == 0 {
		if allocID, err := r.devices.Alloc(t.owner, t.residentBytes); err == nil {
			// Free capacity: the initial load is not charged (the paper's
			// steady-state averages exclude it).
			t.allocID, t.resident = allocID, true
			then()
			return
		}
	}
	t.then = then
	r.queue = append(r.queue, t)
	t.signal.WaitFor("vanilla residency", t.id, t.swapIn)
}

// swap pays the PCIe transfer for t's own replica once its slot was
// reserved at eviction. The victim's write-back overlaps with queueing
// (asynchronous DMA), so it does not appear on the critical path.
func (t *vanillaTask) swap() {
	t.res.kernel.After(t.swapTime, t.swappedIn)
}

func (t *vanillaTask) swapped() {
	t.res.swapOps.Inc()
	t.res.swapTraffic.Add(t.swapBytes)
	t.resident = true
	t.then()
}

// iterDone is called at the end of each client iteration: if clients
// are queued, the finishing client is swapped out and the head waiters
// whose replicas fit get reservations.
func (r *residency) iterDone(t *vanillaTask) {
	if len(r.queue) == 0 || !t.resident {
		return
	}
	t.resident = false
	_ = r.devices.Free(t.allocID)
	r.admit()
}

// admit reserves freed memory for as many queued waiters as fit, in
// FIFO order.
func (r *residency) admit() {
	for len(r.queue) > 0 {
		t := r.queue[0]
		allocID, err := r.devices.Alloc(t.owner, t.residentBytes)
		if err != nil {
			return // head does not fit yet; keep FIFO order
		}
		r.queue = r.queue[1:]
		t.allocID = allocID
		t.signal.Fire()
	}
}

// vanillaClient is one baseline client's schedule: the Menos loop's
// transfers and client segments around a whole-iteration residency.
type vanillaClient struct {
	clientLoop
	res  *residency
	task vanillaTask
	spec *ClientSpec

	pre, mid, post time.Duration
	fwd, bwd       time.Duration
	iterations     int

	pc       vanillaPC
	iter     int
	resStart time.Duration
}

// vanillaPC is a position in vanillaClient.step.
type vanillaPC int

const (
	vpArrive vanillaPC = iota
	vpIterate
	vpUploadXC
	vpResident
	vpForward
	vpDownloadXS
	vpClientMid
	vpUploadGC
	vpBackward
	vpOptimizer
	vpDownloadGS
	vpClientPost
	vpIterDone
)

// step is the baseline client's schedule in loop order; see
// menosClient.step for how a case blocks.
func (c *vanillaClient) step() {
	k := c.kernel
	c.land()
	for {
		switch c.pc {
		case vpArrive:
			c.pc = vpIterate
			if c.spec.StartDelay > 0 {
				k.After(c.spec.StartDelay, c.advance)
				return
			}

		case vpIterate:
			if c.iter == c.iterations {
				return
			}
			c.tid = obs.IterTraceID(c.id, c.iter)
			c.pc = vpUploadXC
			c.computeLocal(obs.SpanClientPre, c.pre)
			return

		case vpUploadXC:
			c.pc = vpResident
			c.upload(obs.SpanUploadXC)
			return

		case vpResident:
			// The task must be on the GPU for the whole iteration.
			c.resStart = k.Now()
			c.pc = vpForward
			c.res.ensure(&c.task, c.advance)
			return

		case vpForward:
			c.bill(obs.SpanResidencyWait, c.resStart, k.Now()-c.resStart)
			c.pc = vpDownloadXS
			c.compute(obs.SpanForward, c.fwd)
			return

		case vpDownloadXS:
			c.pc = vpClientMid
			c.download(obs.SpanDownloadXS)
			return

		case vpClientMid:
			c.pc = vpUploadGC
			c.computeLocal(obs.SpanClientMid, c.mid)
			return

		case vpUploadGC:
			c.pc = vpBackward
			c.upload(obs.SpanUploadGC)
			return

		case vpBackward:
			c.pc = vpOptimizer
			c.compute(obs.SpanBackward, c.bwd)
			return

		case vpOptimizer:
			c.pc = vpDownloadGS
			c.compute(obs.SpanOptimizer, costmodel.OptimizerStepTime)
			return

		case vpDownloadGS:
			c.pc = vpClientPost
			c.download(obs.SpanDownloadGS)
			return

		case vpClientPost:
			c.pc = vpIterDone
			c.computeLocal(obs.SpanClientPost, c.post)
			return

		case vpIterDone:
			c.bd.iterations++
			c.res.iterDone(&c.task)
			c.iter++
			c.pc = vpIterate
		}
	}
}

// runVanilla simulates the vanilla split-learning baseline.
func runVanilla(cfg Config) (*Result, error) {
	kernel := sim.New()
	devices, err := gpu.NewDeviceSet(cfg.GPUSpec, cfg.GPUs)
	if err != nil {
		return nil, err
	}
	link := cfg.LinkPreset(kernel)

	devices.Instrument(cfg.Metrics)
	res := &residency{
		kernel:      kernel,
		devices:     devices,
		swapOps:     cfg.Metrics.Counter(obs.MetricSwapOps, "Task swap-in transfers (vanilla baseline)."),
		swapTraffic: cfg.Metrics.Counter(obs.MetricSwapBytes, "Bytes moved over PCIe by task swap-ins (vanilla baseline)."),
	}
	clients := make([]vanillaClient, len(cfg.Clients))
	signals := kernel.NewSignals(len(cfg.Clients))
	results := make([]ClientResult, len(cfg.Clients))
	var persistent int64
	for i := range clients {
		spec := &cfg.Clients[i]
		w := spec.Workload
		c := &clients[i]
		results[i].ID = spec.ID
		// The wire codec shrinks split-boundary transfers exactly as in
		// the Menos loop, so codec sweeps compare modes fairly.
		transfer := w.TransferBytes()
		if cfg.WireCodec != quant.CodecFP32 {
			transfer = int64(float64(transfer) * cfg.WireCodec.WireRatio())
		}
		c.initLoop(kernel, link, cfg.Tracer, spec.ID, &results[i].Breakdown, transfer, c.step)
		cost := costmodel.New(cfg.ServerPerf, w)
		c.res, c.spec, c.iterations = res, spec, cfg.Iterations
		c.pre, c.mid, c.post = clientPhases(costmodel.ClientComputeTime(spec.Platform, w))
		c.fwd, c.bwd = cost.ForwardTime(w), cost.BackwardTime(w)

		states := w.AdapterBytes() + w.GradBytes() + w.OptimizerBytes()
		t := &c.task
		t.owner, t.id = "replica:"+spec.ID, spec.ID
		t.residentBytes = w.ServerBaseBytes() + states + w.ActivationBytes()
		t.swapBytes = w.ServerBaseBytes() + states
		t.swapTime = cost.SwapTime(t.swapBytes)
		t.res, t.signal = res, &signals[i]
		t.swapIn, t.swappedIn = t.swap, t.swapped
		persistent += t.swapBytes
	}

	// Reject configurations where one replica cannot fit at all.
	for i := range clients {
		if t := &clients[i].task; t.residentBytes > devices.Capacity() {
			return nil, fmt.Errorf("%w: replica for %q needs %d bytes, capacity %d",
				ErrConfig, clients[i].id, t.residentBytes, devices.Capacity())
		}
	}

	for i := range clients {
		kernel.After(0, clients[i].advance)
	}
	if err := kernel.Run(); err != nil {
		return nil, fmt.Errorf("vanilla simulation: %w", err)
	}

	return &Result{
		Mode:            ModeVanilla,
		Clients:         results,
		Aggregate:       aggregate(results),
		PersistentBytes: persistent,
		PeakBytes:       devices.Peak(),
		SimulatedTime:   kernel.Now(),
	}, nil
}
