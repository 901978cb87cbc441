package splitsim

import (
	"fmt"
	"reflect"
	"testing"

	"menos/internal/adapter"
	"menos/internal/costmodel"
	"menos/internal/memmodel"
)

// setUp is a run of cfg set up to its first event.
func setUp(t *testing.T, cfg Config) *menosRun {
	t.Helper()
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	r, err := newMenosRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestProfilesAreSharedByKey: a fleet whose clients interleave five
// workloads — the paper's OPT one, and four that each differ from it in
// one pricing input only (adapter targets, LoRA rank, batch, client
// platform) — gives every client exactly the profile it is priced alone,
// and clients of one workload share a single profile. A key that ignored
// any of the four inputs would hand one variant another's profile.
func TestProfilesAreSharedByKey(t *testing.T) {
	base := ClientSpec{Workload: memmodel.PaperOPTWorkload(), Platform: costmodel.ClientGPUPerf()}
	targets, rank, batch, platform := base, base, base, base
	targets.Workload.Adapter.Targets = []adapter.Target{adapter.TargetQ, adapter.TargetK, adapter.TargetV, adapter.TargetO}
	rank.Workload.Adapter.Rank *= 2
	batch.Workload.Batch /= 2
	platform.Platform = costmodel.ClientCPUPerf()
	variants := []ClientSpec{base, targets, rank, batch, platform}

	alone := make([]*profile, len(variants))
	for v, spec := range variants {
		spec.ID = "alone"
		alone[v] = setUp(t, Config{Mode: ModeMenos, GPUs: 4, Clients: []ClientSpec{spec}}).clients[0].prof
		if v > 0 && reflect.DeepEqual(*alone[v], *alone[0]) {
			t.Fatalf("variant %d prices like the base workload: the test cannot tell a key that ignores it", v)
		}
	}

	cfg := Config{Mode: ModeMenos, GPUs: 4}
	for i := 0; i < 3*len(variants); i++ {
		spec := variants[i%len(variants)]
		spec.ID = fmt.Sprintf("client-%d", i)
		// Equal targets in a slice of their own are the same workload.
		spec.Workload.Adapter.Targets = append([]adapter.Target(nil), spec.Workload.Adapter.Targets...)
		cfg.Clients = append(cfg.Clients, spec)
	}
	r := setUp(t, cfg)
	for i := range r.clients {
		c, v := &r.clients[i], i%len(variants)
		if !reflect.DeepEqual(*c.prof, *alone[v]) {
			t.Errorf("%s (variant %d) got profile %+v, priced alone %+v", c.id, v, *c.prof, *alone[v])
		}
		if first := &r.clients[v]; c.prof != first.prof {
			t.Errorf("%s does not share %s's profile", c.id, first.id)
		}
		if c.ci.ID != c.id {
			t.Errorf("%s's fleet view is named %q", c.id, c.ci.ID)
		}
	}
	if n := len(r.profiles); n != len(variants)-1 { // targets share the base key
		t.Errorf("%d profile keys, want %d", n, len(variants)-1)
	}
}

// TestProfileKeyCoversWorkload fails when memmodel.Workload or
// adapter.Spec gains a field, which profileKey (or the Targets compare
// beside it) must then take in: a pricing input left out of the key
// would let two workloads share one profile.
func TestProfileKeyCoversWorkload(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(memmodel.Workload{}), []string{"Model", "Cut", "Adapter", "Batch", "Seq"}},
		{reflect.TypeOf(adapter.Spec{}), []string{"Kind", "Rank", "Alpha", "Targets", "PrefixLen"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			got = append(got, c.typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v has fields %v; profileKey covers %v", c.typ, got, c.want)
		}
	}
}
