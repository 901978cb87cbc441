package menos_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/core"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/tensor"
)

// TestExposedFamiliesArePinned pins which metric families each plane
// registers: every (family, type, label key) that an instrumented live
// server, run for two steps with an SLO and batching on, and an
// instrumented simulated fleet, run with an SLO and batching, expose in
// their scrape. A family that stops being registered, changes type or
// changes its label fails here, whichever plane or setter wires it.
// The rows come from the JSON exposition, which names a labeled
// family's key even before its first series.
func TestExposedFamiliesArePinned(t *testing.T) {
	for _, c := range []struct {
		name string
		reg  func(t *testing.T) *obs.Registry
		want []string
	}{
		{"server", liveServerRegistry, []string{
			"menos_batch_formed_total counter -",
			"menos_batch_hold_seconds histogram -",
			"menos_batch_occupancy_ratio gauge -",
			"menos_batch_rows_total counter -",
			"menos_batch_rows_total counter client",
			"menos_batch_size histogram -",
			"menos_gpu_alloc_ops_total counter -",
			"menos_gpu_oom_total counter -",
			"menos_gpu_owner_bytes gauge owner",
			"menos_gpu_persistent_byte_seconds_total counter client",
			"menos_gpu_transient_byte_seconds_total counter client",
			"menos_sched_admission_shed_total counter -",
			"menos_sched_admission_slo_target_micros gauge -",
			"menos_sched_backfilled_total counter -",
			"menos_sched_claimed_total counter -",
			"menos_sched_completed_total counter -",
			"menos_sched_granted_total counter -",
			"menos_sched_grown_total counter -",
			"menos_sched_hol_blocked_seconds histogram -",
			"menos_sched_parked_bytes gauge -",
			"menos_sched_queue_depth_max gauge -",
			"menos_sched_rejected_total counter -",
			"menos_sched_revocations_total counter -",
			"menos_sched_revocations_total counter client",
			"menos_sched_submitted_total counter -",
			"menos_sched_wait_seconds histogram -",
			"menos_sched_wait_seconds histogram client",
			"menos_server_active_clients gauge -",
			"menos_server_arena_outstanding_bytes gauge client",
			"menos_server_arena_retained_bytes gauge client",
			"menos_server_clients_admitted_total counter -",
			"menos_server_compute_seconds histogram -",
			"menos_server_compute_seconds histogram client",
			"menos_server_iterations_total counter -",
			"menos_server_iterations_total counter client",
			"menos_server_reforwards_total counter -",
			"menos_server_sched_wait_seconds histogram -",
			"menos_server_sheds_total counter client",
			"menos_server_wire_rx_bytes_total counter client",
			"menos_server_wire_tx_bytes_total counter client",
			"menos_wire_codec_seconds histogram -",
			"menos_wire_compressed_bytes_total counter -",
			"menos_wire_raw_bytes_total counter -",
		}},
		{"splitsim", func(t *testing.T) *obs.Registry {
			reg := obs.NewRegistry()
			pinnedSim(t, reg, true)
			return reg
		}, []string{
			"menos_batch_formed_total counter -",
			"menos_batch_hold_seconds histogram -",
			"menos_batch_occupancy_ratio gauge -",
			"menos_batch_rows_total counter -",
			"menos_batch_rows_total counter client",
			"menos_batch_size histogram -",
			"menos_fleet_imbalance_ratio gauge -",
			"menos_fleet_placements_total counter -",
			"menos_fleet_scale_events_total counter -",
			"menos_fleet_servers gauge -",
			"menos_gpu_alloc_ops_total counter -",
			"menos_gpu_oom_total counter -",
			"menos_gpu_owner_bytes gauge owner",
			"menos_gpu_persistent_byte_seconds_total counter client",
			"menos_gpu_transient_byte_seconds_total counter client",
			"menos_overlap_hidden_seconds histogram -",
			"menos_sched_admission_shed_total counter -",
			"menos_sched_admission_slo_target_micros gauge -",
			"menos_sched_backfilled_total counter -",
			"menos_sched_claimed_total counter -",
			"menos_sched_completed_total counter -",
			"menos_sched_granted_total counter -",
			"menos_sched_grown_total counter -",
			"menos_sched_hol_blocked_seconds histogram -",
			"menos_sched_parked_bytes gauge -",
			"menos_sched_queue_depth_max gauge -",
			"menos_sched_rejected_total counter -",
			"menos_sched_revocations_total counter -",
			"menos_sched_revocations_total counter client",
			"menos_sched_submitted_total counter -",
			"menos_sched_wait_seconds histogram -",
			"menos_sched_wait_seconds histogram client",
			"menos_server_compute_seconds histogram client",
			"menos_server_iterations_total counter client",
			"menos_server_sheds_total counter client",
			"menos_server_wire_rx_bytes_total counter client",
			"menos_server_wire_tx_bytes_total counter client",
			"menos_wire_compressed_bytes_total counter -",
			"menos_wire_raw_bytes_total counter -",
		}},
	} {
		got := exposedFamilies(t, c.reg(t))
		if !slices.Equal(got, c.want) {
			t.Errorf("%s exposes:\n\t%s\nwant:\n\t%s", c.name, strings.Join(got, "\n\t"), strings.Join(c.want, "\n\t"))
		}
	}
}

// liveServerRegistry serves one client two steps on an OPT-tiny
// deployment with admission control and batching on, and returns the
// deployment's registry.
func liveServerRegistry(t *testing.T) *obs.Registry {
	reg := obs.NewRegistry()
	dep, err := core.NewDeployment(core.DeploymentConfig{
		Model:      model.OPTTiny(),
		WeightSeed: 42,
		SLO:        sched.SLO{TargetP99: time.Second},
		Batch:      sched.BatchPolicy{MaxSize: 4, MaxHold: 10 * time.Millisecond},
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := client.Config{
		ClientID:    "families",
		Model:       model.OPTTiny(),
		WeightSeed:  42,
		Cut:         1,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 7,
		LR:          1e-3,
		Batch:       1,
		Seq:         8,
	}
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := tensor.NewRNG(1)
	ids, targets := make([]int, cfg.Batch*cfg.Seq), make([]int, cfg.Batch*cfg.Seq)
	for i := range ids {
		ids[i], targets[i] = r.Intn(cfg.Model.Vocab), r.Intn(cfg.Model.Vocab)
	}
	for step := 0; step < 2; step++ {
		if _, err := c.Step(ids, targets); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// exposedFamilies lists reg's families as sorted "family type label"
// rows, label "-" for a family's unlabeled series.
func exposedFamilies(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]json.RawMessage
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for section, fams := range doc {
		typ, labeled := strings.CutSuffix(section, "_vecs")
		if !labeled {
			typ = strings.TrimSuffix(section, "s")
		}
		typ = strings.TrimSuffix(typ, "s")
		for name, raw := range fams {
			label := "-"
			if labeled {
				var v struct{ Label string }
				if err := json.Unmarshal(raw, &v); err != nil {
					t.Fatal(err)
				}
				label = v.Label
			}
			rows = append(rows, fmt.Sprintf("%s %s %s", name, typ, label))
		}
	}
	slices.Sort(rows)
	return rows
}
