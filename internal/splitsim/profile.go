package splitsim

import (
	"slices"
	"time"

	"menos/internal/adapter"
	"menos/internal/costmodel"
	"menos/internal/fleet"
	"menos/internal/model"
	"menos/internal/quant"
)

// profile is what a client's workload and platform price to on the
// run's servers: the cost model, the client's three compute segments,
// its two server phases, its link payload and the fleet's view of it.
// Every client running the same (Workload, Platform) pair shares one,
// so a Run prices each distinct pair once however many clients run it.
type profile struct {
	targets []adapter.Target // the key's part profileKey cannot hold

	cost           *costmodel.Model
	pre, mid, post time.Duration
	phases         [2]serverPhase
	// info is the fleet's view of a client of this profile, less its ID.
	info                  fleet.ClientInfo
	transfer, rawTransfer int64 // link payload on the wire, and in fp32
	rows                  int64 // microbatch rows a batch member carries
	cut, seq              int   // what a batch key takes from the workload
}

// profileKey is a ClientSpec's pricing inputs in comparable form: the
// workload field by field, except the adapter's Targets slice, which
// makes memmodel.Workload incomparable and is compared beside the key
// (profileOf), and the client platform. TestProfileKeyCoversWorkload
// fails when a Workload or adapter.Spec field is added, so a new input
// cannot be left out of the key.
type profileKey struct {
	model           model.Config
	cut, batch, seq int
	kind            adapter.Kind
	rank, prefixLen int
	alpha           float64
	platform        costmodel.Perf
}

func keyOf(spec *ClientSpec) profileKey {
	w, a := &spec.Workload, &spec.Workload.Adapter
	return profileKey{
		model: w.Model, cut: w.Cut, batch: w.Batch, seq: w.Seq,
		kind: a.Kind, rank: a.Rank, prefixLen: a.PrefixLen, alpha: a.Alpha,
		platform: spec.Platform,
	}
}

// profileOf returns spec's profile, pricing it only if no client before
// it ran the same workload on the same platform.
func (r *menosRun) profileOf(spec *ClientSpec) *profile {
	key := keyOf(spec)
	for _, p := range r.profiles[key] {
		if slices.Equal(p.targets, spec.Workload.Adapter.Targets) {
			return p
		}
	}
	p := r.cfg.newProfile(spec)
	r.profiles[key] = append(r.profiles[key], p)
	return p
}

// newProfile prices spec's workload and platform: §3.3's forward and
// backward demands from the analytic memory model, as the real server's
// handshake prices them, and the phase times from the cost model. The
// fleet placer packs against the same prediction (persistent state
// plus the larger transient peak).
func (c *Config) newProfile(spec *ClientSpec) *profile {
	w := spec.Workload
	p := &profile{
		targets: w.Adapter.Targets,
		cost:    costmodel.New(c.ServerPerf, w),
		rows:    int64(w.Batch),
		cut:     w.Cut,
		seq:     w.Seq,
	}
	p.pre, p.mid, p.post = clientPhases(costmodel.ClientComputeTime(spec.Platform, w))
	p.phases = c.serverPhases(w, p.cost)
	p.info = fleet.ClientInfo{
		BaseModel:          w.Model.Name,
		PersistentBytes:    w.PersistentClientBytes(),
		TransientPeakBytes: max(p.phases[0].grant, p.phases[1].grant),
	}
	// The wire codec shrinks every split-boundary transfer to its ratio
	// of the fp32 volume (per-row scale overhead dropped; see
	// quant.Codec.WireRatio). Grant sizes are untouched: compression
	// changes what crosses the link, not what the GPU materializes.
	p.rawTransfer = w.TransferBytes()
	p.transfer = p.rawTransfer
	if c.WireCodec != quant.CodecFP32 {
		p.transfer = int64(float64(p.rawTransfer) * c.WireCodec.WireRatio())
	}
	return p
}
