package splitsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
)

// TestWireCodecScalesCommTime pins the codec transfer model: per-link
// bytes shrink by WireRatio, so communication time shrinks by (nearly)
// the same factor, latency floor aside.
func TestWireCodecScalesCommTime(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	base := run(t, menosCfg(1, w))
	commFP32, _, _ := base.Aggregate.Totals()

	for _, tc := range []struct {
		codec quant.Codec
		ratio float64
	}{
		{quant.CodecFP16, 0.5},
		{quant.CodecInt8, 0.25},
	} {
		cfg := menosCfg(1, w)
		cfg.WireCodec = tc.codec
		r := run(t, cfg)
		comm, _, _ := r.Aggregate.Totals()
		got := float64(comm) / float64(commFP32)
		// The one-way latency term does not compress, so the observed
		// ratio sits slightly above the byte ratio.
		if got < tc.ratio-0.02 || got > tc.ratio+0.1 {
			t.Fatalf("%v comm ratio = %.3f, want ≈%.2f", tc.codec, got, tc.ratio)
		}
		if r.SimulatedTime >= base.SimulatedTime {
			t.Fatalf("%v run not faster: %v vs %v", tc.codec, r.SimulatedTime, base.SimulatedTime)
		}
	}
}

// TestWireCodecCountsBytes checks the simulated wire counters mirror
// the real plane's savings arithmetic: compressed/raw == WireRatio.
func TestWireCodecCountsBytes(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	cfg := menosCfg(2, w)
	cfg.WireCodec = quant.CodecInt8
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	run(t, cfg)

	compressed := reg.Counter(obs.MetricWireCompressedBytes).Value()
	raw := reg.Counter(obs.MetricWireRawBytes).Value()
	if compressed == 0 || raw == 0 {
		t.Fatalf("wire counters empty: compressed=%d raw=%d", compressed, raw)
	}
	if got := float64(compressed) / float64(raw); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("compressed/raw = %.4f, want 0.25", got)
	}

	// fp32 runs register nothing.
	reg2 := obs.NewRegistry()
	cfg2 := menosCfg(1, w)
	cfg2.Metrics = reg2
	run(t, cfg2)
	if v := reg2.Counter(obs.MetricWireCompressedBytes).Value(); v != 0 {
		t.Fatalf("fp32 run counted %d compressed bytes", v)
	}
}

// TestOverlapHidesFasterLeg is the acceptance pin for the pipelined
// schedule: with overlap on, per-iteration wall time collapses from
// comm+comp+sched to ≈ max(wire leg, client leg) —
// costmodel.OverlapStepTime — while the Breakdown keeps recording the
// serial resource totals.
func TestOverlapHidesFasterLeg(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	seq := run(t, menosCfg(1, w))
	cfg := menosCfg(1, w)
	cfg.Overlap = true
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	ov := run(t, cfg)

	// Resource totals are schedule-independent.
	_, seqComp, _ := seq.Aggregate.Totals()
	_, ovComp, _ := ov.Aggregate.Totals()
	if seqComp != ovComp {
		t.Fatalf("overlap changed compute total: %v vs %v", ovComp, seqComp)
	}

	iters := time.Duration(cfg.Iterations)
	clientLeg := costmodel.ClientComputeTime(cfg.Clients[0].Platform, w)
	wireLeg := (seq.SimulatedTime - iters*clientLeg) / iters
	want := costmodel.OverlapStepTime(wireLeg, clientLeg)
	got := ov.SimulatedTime / iters
	// Jittered transfers keep this from being exact; 5% is far tighter
	// than the serial/overlapped gap the assertion distinguishes.
	if ratio := float64(got) / float64(want); ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("overlapped iteration = %v, want ≈max(wire=%v, client=%v) = %v", got, wireLeg, clientLeg, want)
	}
	if ov.SimulatedTime >= seq.SimulatedTime {
		t.Fatalf("overlap not faster: %v vs %v", ov.SimulatedTime, seq.SimulatedTime)
	}
	// The hidden time accounts for (almost exactly) the difference.
	saved := seq.SimulatedTime - ov.SimulatedTime
	if ov.OverlapHidden < saved*9/10 || ov.OverlapHidden > saved*11/10 {
		t.Fatalf("OverlapHidden = %v, saved wall time = %v", ov.OverlapHidden, saved)
	}
	h := reg.Histogram(obs.MetricOverlapHiddenSeconds, obs.DurationBuckets())
	if h.Count() != int64(cfg.Iterations) {
		t.Fatalf("hidden histogram count = %d, want %d", h.Count(), cfg.Iterations)
	}
	if seq.OverlapHidden != 0 {
		t.Fatalf("sequential run reported hidden time %v", seq.OverlapHidden)
	}
}

// TestOverlapWithCompression stacks both knobs: int8 shrinks the wire
// leg, overlap hides the smaller of the legs, and the combined run is
// the fastest of the four corners.
func TestOverlapWithCompression(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	times := map[string]time.Duration{}
	for _, tc := range []struct {
		name    string
		codec   quant.Codec
		overlap bool
	}{
		{"plain", quant.CodecFP32, false},
		{"int8", quant.CodecInt8, false},
		{"overlap", quant.CodecFP32, true},
		{"int8+overlap", quant.CodecInt8, true},
	} {
		cfg := menosCfg(2, w)
		cfg.WireCodec = tc.codec
		cfg.Overlap = tc.overlap
		times[tc.name] = run(t, cfg).SimulatedTime
	}
	for _, name := range []string{"int8", "overlap"} {
		if times[name] >= times["plain"] {
			t.Fatalf("%s (%v) not faster than plain (%v)", name, times[name], times["plain"])
		}
		if times["int8+overlap"] >= times[name] {
			t.Fatalf("combined (%v) not faster than %s (%v)", times["int8+overlap"], name, times[name])
		}
	}
}

// TestOverlapConfigGate pins the validated envelope.
func TestOverlapConfigGate(t *testing.T) {
	w := memmodel.PaperOPTWorkload()
	bad := []func(*Config){
		func(c *Config) { c.Mode = ModeVanilla },
		func(c *Config) { c.Policy = PolicyPreserve },
		func(c *Config) { c.WireCodec = quant.Codec(9); c.Overlap = false },
		func(c *Config) { c.Policy = MemPolicy(7); c.Overlap = false },
		func(c *Config) { c.SchedPol = sched.Policy(9); c.Overlap = false },
	}
	for i, mutate := range bad {
		cfg := menosCfg(1, w)
		cfg.Overlap = true
		mutate(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: got %v, want ErrConfig", i, err)
		}
	}
}
