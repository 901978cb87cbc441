package alert

import (
	"time"

	"menos/internal/obs"
	"menos/internal/tsdb"
)

// Series name suffixes the fleet controller appends when flattening a
// scraped histogram into the store (see fleet.Controller scrape
// ingestion) — the catalog reads the quantile series back by the same
// convention.
const (
	P99Suffix = "_p99"
)

// Recording-rule output series (the "fleet:" prefix marks derived
// signals so /queryz listings distinguish them from scraped families).
const (
	SeriesSLOBurnRate    = "fleet:slo_burn_rate"
	SeriesImbalanceRatio = "fleet:client_imbalance_ratio"
)

// CatalogConfig calibrates the built-in rule set.
type CatalogConfig struct {
	// Poll is the control plane's poll interval — every dwell and
	// lookback window is expressed in poll ticks so the rules behave
	// identically at any cadence (default 2s).
	Poll time.Duration
	// SLOTargetP99 is the burn-rate denominator for servers that do
	// not advertise menos_sched_admission_slo_target_micros. Zero
	// skips such servers rather than guessing a target.
	SLOTargetP99 time.Duration
}

// The catalog's fixed thresholds.
const (
	// imbalanceRatio is the max/mean active-client ratio above which
	// the imbalance alert goes active, once the fleet has at least
	// imbalanceMinClients clients (a fleet of one or two clients is
	// always "imbalanced" and never actionable).
	imbalanceRatio      = 3.0
	imbalanceMinClients = 4
	// occupancyFloor is the batch-occupancy collapse threshold in
	// integer thousandths of the configured batch size, matching the
	// menos_batch_occupancy_ratio gauge (250 = 25%).
	occupancyFloor = 250
)

func (c CatalogConfig) withDefaults() CatalogConfig {
	if c.Poll <= 0 {
		c.Poll = 2 * time.Second
	}
	return c
}

// Catalog returns the built-in recording and alert rules of the fleet
// telemetry plane (docs/OBSERVABILITY.md documents each).
func Catalog(cfg CatalogConfig) ([]RecordingRule, []Rule) {
	cfg = cfg.withDefaults()
	poll := cfg.Poll

	recording := []RecordingRule{
		{
			// Per-server SLO burn rate: the recent grant-wait p99
			// divided by the server's own advertised target (falling
			// back to cfg.SLOTargetP99). 1.0 = burning exactly at
			// target; > 1 = overload.
			Name: SeriesSLOBurnRate,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				var out []Sample
				p99Name := obs.MetricServerWaitSeconds + P99Suffix
				for _, srv := range st.Servers(p99Name) {
					target := cfg.SLOTargetP99.Seconds()
					if last, ok := st.Last(tsdb.SeriesID{Name: obs.MetricSchedAdmissionSLOTarget, Server: srv}); ok && last.Value > 0 {
						target = last.Value / 1e6
					}
					if target <= 0 {
						continue
					}
					p99, ok := st.AvgOver(tsdb.SeriesID{Name: p99Name, Server: srv}, now-10*poll, now)
					if !ok {
						continue
					}
					out = append(out, Sample{
						Series: tsdb.SeriesID{Name: SeriesSLOBurnRate, Server: srv},
						Value:  p99 / target,
					})
				}
				return out
			},
		},
		{
			// Fleet-wide active-client imbalance: max over servers of
			// active clients divided by the mean (1.0 = perfectly
			// balanced). One fleet-level series (server label 0).
			Name: SeriesImbalanceRatio,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				var max, total float64
				n := 0
				for _, srv := range st.Servers(obs.MetricServerActiveClients) {
					last, ok := st.Last(tsdb.SeriesID{Name: obs.MetricServerActiveClients, Server: srv})
					if !ok {
						continue
					}
					if last.Value > max {
						max = last.Value
					}
					total += last.Value
					n++
				}
				if n == 0 || total == 0 {
					return nil
				}
				mean := total / float64(n)
				return []Sample{{
					Series: tsdb.SeriesID{Name: SeriesImbalanceRatio},
					Value:  max / mean,
				}}
			},
		},
	}

	rules := []Rule{
		{
			Name:     "server_down",
			Help:     "server failed its last poll (no /healthz+/loadz answer)",
			Severity: "critical",
			For:      3 * poll,
			Resolve:  2 * poll,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				var out []Sample
				for _, srv := range st.Servers(obs.MetricFleetdUp) {
					id := tsdb.SeriesID{Name: obs.MetricFleetdUp, Server: srv}
					if last, ok := st.Last(id); ok && last.Value == 0 {
						out = append(out, Sample{Series: id, Value: 0})
					}
				}
				return out
			},
		},
		{
			Name:     "server_identity_mismatch",
			Help:     "endpoint answers with a different server identity than configured (port reuse / misrouted config)",
			Severity: "critical",
			For:      2 * poll,
			Resolve:  2 * poll,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				var out []Sample
				for _, srv := range st.Servers(obs.MetricFleetdIdentityGauge) {
					id := tsdb.SeriesID{Name: obs.MetricFleetdIdentityGauge, Server: srv}
					if last, ok := st.Last(id); ok && last.Value != 0 {
						out = append(out, Sample{Series: id, Value: last.Value})
					}
				}
				return out
			},
		},
		{
			Name:     "slo_burn_rate",
			Help:     "grant-wait p99 at or above the server's admission SLO target (burn rate >= 1)",
			Severity: "critical",
			For:      3 * poll,
			Resolve:  5 * poll,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				var out []Sample
				for _, srv := range st.Servers(SeriesSLOBurnRate) {
					id := tsdb.SeriesID{Name: SeriesSLOBurnRate, Server: srv}
					if last, ok := st.Last(id); ok && last.Value >= 1.0 {
						out = append(out, Sample{Series: id, Value: last.Value})
					}
				}
				return out
			},
		},
		{
			Name:     "shed_storm",
			Help:     "admission control is shedding submissions",
			Severity: "warning",
			For:      2 * poll,
			Resolve:  5 * poll,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				var out []Sample
				for _, srv := range st.Servers(obs.MetricSchedAdmissionShed) {
					id := tsdb.SeriesID{Name: obs.MetricSchedAdmissionShed, Server: srv}
					if inc, ok := st.Increase(id, now-5*poll, now); ok && inc > 0 {
						out = append(out, Sample{Series: id, Value: inc})
					}
				}
				return out
			},
		},
		{
			Name:     "gpu_oom",
			Help:     "GPU allocation failed (out of memory) on a recent iteration",
			Severity: "critical",
			For:      0, // one OOM is already an incident
			Resolve:  5 * poll,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				var out []Sample
				for _, srv := range st.Servers(obs.MetricGPUOOM) {
					id := tsdb.SeriesID{Name: obs.MetricGPUOOM, Server: srv}
					if inc, ok := st.Increase(id, now-5*poll, now); ok && inc > 0 {
						out = append(out, Sample{Series: id, Value: inc})
					}
				}
				return out
			},
		},
		{
			Name:     "fleet_imbalance",
			Help:     "active clients concentrated on few servers (max/mean ratio over threshold)",
			Severity: "warning",
			For:      5 * poll,
			Resolve:  5 * poll,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				id := tsdb.SeriesID{Name: SeriesImbalanceRatio}
				last, ok := st.Last(id)
				if !ok || last.Value < imbalanceRatio {
					return nil
				}
				var total float64
				for _, srv := range st.Servers(obs.MetricServerActiveClients) {
					if l, ok := st.Last(tsdb.SeriesID{Name: obs.MetricServerActiveClients, Server: srv}); ok {
						total += l.Value
					}
				}
				if total < imbalanceMinClients {
					return nil
				}
				return []Sample{{Series: id, Value: last.Value}}
			},
		},
		{
			Name:     "batch_occupancy_collapse",
			Help:     "cross-client batches are forming nearly empty (occupancy under the floor while batching is active)",
			Severity: "warning",
			For:      5 * poll,
			Resolve:  5 * poll,
			Eval: func(st *tsdb.Store, now time.Duration) []Sample {
				var out []Sample
				for _, srv := range st.Servers(obs.MetricBatchFormed) {
					formed, ok := st.Increase(tsdb.SeriesID{Name: obs.MetricBatchFormed, Server: srv}, now-10*poll, now)
					if !ok || formed == 0 {
						continue // batching idle or disabled: nothing to judge
					}
					id := tsdb.SeriesID{Name: obs.MetricBatchOccupancy, Server: srv}
					if avg, ok := st.AvgOver(id, now-10*poll, now); ok && avg < occupancyFloor {
						out = append(out, Sample{Series: id, Value: avg})
					}
				}
				return out
			},
		},
	}
	return recording, rules
}
