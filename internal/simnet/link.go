// Package simnet models the wide-area link between split-learning
// clients and the server: a bandwidth/latency pipe with mild fair-share
// contention and deterministic jitter. The paper's geo-distributed
// setup (Toronto ↔ Vancouver over the Internet) is reproduced by a
// preset calibrated to the transfer sizes and communication times of
// §5 (≈8 MB/s effective per-flow throughput, ≈60 ms RTT).
package simnet

import (
	"fmt"
	"time"

	"menos/internal/sim"
	"menos/internal/tensor"
)

// Link is a shared bidirectional WAN pipe.
type Link struct {
	kernel *sim.Kernel

	// BytesPerSecond is the effective per-flow application throughput.
	BytesPerSecond float64
	// OneWayLatency is half the RTT, added to every transfer.
	OneWayLatency time.Duration
	// ContentionFactor inflates transfer time by this fraction per
	// additional concurrent flow ("clients must share the server's
	// bandwidth, but the impact is negligible").
	ContentionFactor float64
	// JitterFraction adds a deterministic pseudo-random ±fraction to
	// each transfer.
	JitterFraction float64

	rng    *tensor.RNG
	active int
	free   []*flow

	totalBytes     int64
	totalTransfers int64
}

// WANPreset returns the paper-calibrated Internet link.
func WANPreset(k *sim.Kernel) *Link {
	return &Link{
		kernel:           k,
		BytesPerSecond:   8 << 20, // ≈8 MiB/s: 51.2 MB/round ⇒ 6.4 s (OPT)
		OneWayLatency:    30 * time.Millisecond,
		ContentionFactor: 0.015,
		JitterFraction:   0.04,
		rng:              tensor.NewRNG(0xbeef),
	}
}

// LANPreset returns a fast local link, used by tests that want
// communication out of the picture.
func LANPreset(k *sim.Kernel) *Link {
	return &Link{
		kernel:         k,
		BytesPerSecond: 1 << 30,
		OneWayLatency:  200 * time.Microsecond,
		rng:            tensor.NewRNG(0xbeef),
	}
}

// Preset builds a link factory with the given per-flow throughput and
// one-way latency, keeping the WAN preset's contention and jitter
// characteristics (and its deterministic RNG seed). The bandwidth
// sweeps use this to walk a ladder of link speeds between the paper's
// WAN and a datacenter LAN without redefining the link model each time.
func Preset(bytesPerSecond float64, oneWay time.Duration) func(*sim.Kernel) *Link {
	return func(k *sim.Kernel) *Link {
		return &Link{
			kernel:           k,
			BytesPerSecond:   bytesPerSecond,
			OneWayLatency:    oneWay,
			ContentionFactor: 0.015,
			JitterFraction:   0.04,
			rng:              tensor.NewRNG(0xbeef),
		}
	}
}

// TransferDuration computes the simulated time to move bytes over the
// link given the current contention, including jitter.
func (l *Link) TransferDuration(bytes int64) time.Duration {
	seconds := float64(bytes) / l.BytesPerSecond
	seconds *= 1 + l.ContentionFactor*float64(l.active)
	if l.JitterFraction > 0 {
		seconds *= 1 + l.JitterFraction*(2*l.rng.Float64()-1)
	}
	return l.OneWayLatency + time.Duration(seconds*float64(time.Second))
}

// Transfer starts moving bytes over the link and returns the time it
// takes. The flow counts toward contention until it lands, d later;
// then the link lets go of it and runs then.
func (l *Link) Transfer(bytes int64, then func()) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	d := l.TransferDuration(bytes)
	l.active++
	l.totalBytes += bytes
	l.totalTransfers++
	if len(l.free) == 0 {
		chunk := make([]flow, flowChunk)
		for i := range chunk {
			f := &chunk[i]
			f.link, f.land = l, f.landed
			l.free = append(l.free, f)
		}
	}
	n := len(l.free) - 1
	f := l.free[n]
	l.free = l.free[:n]
	f.then = then
	l.kernel.After(d, f.land)
	return d
}

// flowChunk is how many flows one allocation makes when a link's pool
// runs dry.
const flowChunk = 16

// flow is one transfer in flight. Flows are pooled per link, each with
// its landing bound once, so a transfer allocates nothing.
type flow struct {
	link *Link
	then func()
	land func()
}

func (f *flow) landed() {
	l, then := f.link, f.then
	l.active--
	f.then = nil
	l.free = append(l.free, f)
	then()
}

// Stats summarizes link usage.
type Stats struct {
	TotalBytes     int64
	TotalTransfers int64
}

// Stats returns cumulative usage counters.
func (l *Link) Stats() Stats {
	return Stats{TotalBytes: l.totalBytes, TotalTransfers: l.totalTransfers}
}

// String describes the link.
func (l *Link) String() string {
	return fmt.Sprintf("link(%.1f MiB/s, %v one-way)",
		l.BytesPerSecond/(1<<20), l.OneWayLatency)
}
