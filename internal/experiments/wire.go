package experiments

import (
	"fmt"
	"time"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/quant"
	"menos/internal/simnet"
	"menos/internal/splitsim"
)

// Wire sweep tuning (docs/WIRE.md). The sweep walks a ladder of link
// bandwidths from the paper's WAN to a datacenter LAN and, at each
// rung, measures what compression and comm/compute overlap buy. The
// knee it exposes: on slow links communication dominates, so int8
// compression (¼ the bytes) nearly quarters the iteration time and
// overlap is capped by the still-wide wire leg; on fast links compute
// dominates, compression buys almost nothing, and overlap hides the
// wire leg entirely — the combined run approaches
// costmodel.OverlapStepTime's max(wire, client) bound from both sides.
const (
	// wireClients keeps server-side queueing mild so the link and the
	// client compute legs are what the cells measure.
	wireClients = 4
	// wireOneWay fixes the propagation latency across the ladder: only
	// bandwidth sweeps, so column-to-column movement is attributable.
	wireOneWay = 30 * time.Millisecond
)

// WireBandwidths is the link-speed axis, in bytes/second. The first
// rung is the paper's calibrated WAN; the last is the LAN preset's
// throughput.
var WireBandwidths = []float64{8 << 20, 32 << 20, 128 << 20, 1 << 30}

// WireSweep measures the compression × overlap × bandwidth surface:
// for each link speed it runs the same workload under every codec and
// scheduling corner and reports the speedup over the uncompressed
// sequential baseline, plus the virtual time overlap hid in the
// fastest corner.
func WireSweep(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	w := memmodel.PaperOPTWorkload()
	t := NewTable(
		fmt.Sprintf("Wire transport sweep (OPT-6.7B, %d clients, %v one-way)", wireClients, wireOneWay),
		"link (MiB/s)", "plain (s)", "fp16 (x)", "int8 (x)", "overlap (x)", "int8+overlap (x)", "hidden (s)")
	for _, bw := range WireBandwidths {
		base, err := runWire(w, bw, quant.CodecFP32, false, opts.Iterations)
		if err != nil {
			return nil, fmt.Errorf("wire sweep (%.0f MiB/s, baseline): %w", bw/(1<<20), err)
		}
		speedup := func(codec quant.Codec, overlap bool) (float64, *splitsim.Result, error) {
			r, err := runWire(w, bw, codec, overlap, opts.Iterations)
			if err != nil {
				return 0, nil, fmt.Errorf("wire sweep (%.0f MiB/s, %v, overlap=%v): %w", bw/(1<<20), codec, overlap, err)
			}
			return float64(base.SimulatedTime) / float64(r.SimulatedTime), r, nil
		}
		fp16, _, err := speedup(quant.CodecFP16, false)
		if err != nil {
			return nil, err
		}
		int8, _, err := speedup(quant.CodecInt8, false)
		if err != nil {
			return nil, err
		}
		overlap, _, err := speedup(quant.CodecFP32, true)
		if err != nil {
			return nil, err
		}
		both, bothRes, err := speedup(quant.CodecInt8, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.0f", bw/(1<<20)),
			Seconds(base.SimulatedTime),
			fmt.Sprintf("%.2f", fp16),
			fmt.Sprintf("%.2f", int8),
			fmt.Sprintf("%.2f", overlap),
			fmt.Sprintf("%.2f", both),
			Seconds(bothRes.OverlapHidden))
	}
	return t, nil
}

// runWire is one cell: lockstep clients on a parameterized link under
// one codec/overlap corner.
func runWire(w memmodel.Workload, bw float64, codec quant.Codec, overlap bool, iterations int) (*splitsim.Result, error) {
	return splitsim.Run(splitsim.Config{
		Mode:       splitsim.ModeMenos,
		Clients:    splitsim.HomogeneousClients(wireClients, w, costmodel.ClientGPUPerf()),
		Iterations: iterations,
		LinkPreset: simnet.Preset(bw, wireOneWay),
		WireCodec:  codec,
		Overlap:    overlap,
	})
}
