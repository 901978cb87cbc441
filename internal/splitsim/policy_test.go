package splitsim

import (
	"testing"
	"time"

	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/simnet"
)

// spanKey is what TestPolicySpanSequence pins of a span.
type spanKey struct{ name, cat string }

// TestPolicySpanSequence pins the span story of one client's iteration
// under each Fig. 3 policy, and under batched on-demand serving: which
// server phases run, what they are called, and where a release is
// billed. TestVirtualTimeGolden pins totals and event order but no span
// name, so a renamed re-forward or a dropped release span shows up here
// only.
func TestPolicySpanSequence(t *testing.T) {
	cases := []struct {
		name   string
		policy MemPolicy
		batch  *sched.BatchPolicy
		want   []spanKey
	}{
		{"on-demand", PolicyOnDemand, nil, []spanKey{
			{"client-pre", "compute"}, {"upload:x_c", "comm"},
			{"wait:forward", "sched"}, {"forward", "compute"},
			{"download:x_s", "comm"}, {"client-mid", "compute"}, {"upload:g_c", "comm"},
			{"wait:backward", "sched"}, {"re-forward+backward", "compute"}, {"release", "compute"},
			{"optimizer", "compute"}, {"download:g_s", "comm"}, {"client-post", "compute"},
		}},
		{"release-on-wait", PolicyReleaseOnWait, nil, []spanKey{
			{"client-pre", "compute"}, {"upload:x_c", "comm"},
			{"wait:forward", "sched"}, {"forward", "compute"}, {"release", "compute"},
			{"download:x_s", "comm"}, {"client-mid", "compute"}, {"upload:g_c", "comm"},
			{"wait:backward", "sched"}, {"backward", "compute"}, {"release", "compute"},
			{"optimizer", "compute"}, {"download:g_s", "comm"}, {"client-post", "compute"},
		}},
		{"preserve", PolicyPreserve, nil, []spanKey{
			{"client-pre", "compute"}, {"upload:x_c", "comm"},
			{"wait:forward", "sched"}, {"forward", "compute"},
			{"download:x_s", "comm"}, {"client-mid", "compute"}, {"upload:g_c", "comm"},
			{"backward", "compute"}, {"release", "compute"},
			{"optimizer", "compute"}, {"download:g_s", "comm"}, {"client-post", "compute"},
		}},
		{"persist-all", PolicyPersistAll, nil, []spanKey{
			{"client-pre", "compute"}, {"upload:x_c", "comm"},
			{"wait:forward", "sched"}, {"forward", "compute"},
			{"download:x_s", "comm"}, {"client-mid", "compute"}, {"upload:g_c", "comm"},
			{"backward", "compute"},
			{"optimizer", "compute"}, {"download:g_s", "comm"}, {"client-post", "compute"},
		}},
		// The batch leader pays the release cycle; no member bills it.
		{"batched on-demand", PolicyOnDemand, &sched.BatchPolicy{MaxSize: 1}, []spanKey{
			{"client-pre", "compute"}, {"upload:x_c", "comm"},
			{"wait:forward", "sched"}, {"forward", "compute"},
			{"download:x_s", "comm"}, {"client-mid", "compute"}, {"upload:g_c", "comm"},
			{"wait:backward", "sched"}, {"re-forward+backward", "compute"},
			{"optimizer", "compute"}, {"download:g_s", "comm"}, {"client-post", "compute"},
		}},
	}
	// check runs cfg for one iteration and compares client-1's spans.
	check := func(name string, cfg Config, want []spanKey) {
		tracer := obs.NewTracer(nil)
		cfg.Iterations = 1
		cfg.Tracer = tracer
		run(t, cfg)
		var got []spanKey
		for _, s := range tracer.Spans() {
			if s.Track == "client-1" {
				got = append(got, spanKey{s.Name, s.Cat})
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d spans %v, want %d %v", name, len(got), got, len(want), want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: span %d is %v, want %v (all: %v)", name, i, got[i], want[i], got)
				break
			}
		}
	}
	for _, tc := range cases {
		cfg := menosCfg(1, memmodel.PaperOPTWorkload())
		cfg.Policy = tc.policy
		cfg.Batch = tc.batch
		check(tc.name, cfg, tc.want)
	}

	// The vanilla baseline waits once per iteration, for its replica to
	// be resident, and releases nothing.
	check("vanilla", vanillaCfg(1, memmodel.PaperOPTWorkload()), []spanKey{
		{"client-pre", "compute"}, {"upload:x_c", "comm"},
		{"residency-wait", "sched"}, {"forward", "compute"},
		{"download:x_s", "comm"}, {"client-mid", "compute"}, {"upload:g_c", "comm"},
		{"backward", "compute"},
		{"optimizer", "compute"}, {"download:g_s", "comm"}, {"client-post", "compute"},
	})
	// Two members share each batched invocation: each stalls for its
	// co-member's rows after its own share of the kernel.
	batched := menosCfg(2, memmodel.PaperOPTWorkload())
	batched.Batch = &sched.BatchPolicy{MaxSize: 2, MaxHold: 100 * time.Millisecond}
	batched.LinkPreset = simnet.LANPreset
	check("batched pair", batched, []spanKey{
		{"client-pre", "compute"}, {"upload:x_c", "comm"},
		{"wait:forward", "sched"}, {"forward", "compute"}, {"batch-stall", "sched"},
		{"download:x_s", "comm"}, {"client-mid", "compute"}, {"upload:g_c", "comm"},
		{"wait:backward", "sched"}, {"re-forward+backward", "compute"}, {"batch-stall", "sched"},
		{"optimizer", "compute"}, {"download:g_s", "comm"}, {"client-post", "compute"},
	})
}
