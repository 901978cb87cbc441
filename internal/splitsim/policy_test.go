package splitsim

import (
	"testing"

	"menos/internal/memmodel"
	"menos/internal/obs"
	"menos/internal/sched"
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
	for _, tc := range cases {
		tracer := obs.NewTracer(nil)
		cfg := menosCfg(1, memmodel.PaperOPTWorkload())
		cfg.Iterations = 1
		cfg.Policy = tc.policy
		cfg.Batch = tc.batch
		cfg.Tracer = tracer
		run(t, cfg)
		var got []spanKey
		for _, s := range tracer.Spans() {
			got = append(got, spanKey{s.Name, s.Cat})
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d spans %v, want %d %v", tc.name, len(got), got, len(tc.want), tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: span %d is %v, want %v (all: %v)", tc.name, i, got[i], tc.want[i], got)
				break
			}
		}
	}
}
