package server

import (
	"fmt"
	"sync"
	"testing"

	"menos/internal/client"
	"menos/internal/gpu"
	"menos/internal/obs"
	"menos/internal/sched"
	"menos/internal/share"
	"menos/internal/tensor"
)

// tenantFootprint reports what one tenant of clientCfg's shape costs the
// scheduler — M_f, M_b and the persistent reservation — by admitting one
// on an ample server.
func tenantFootprint(t *testing.T) (mf, mb, persist int64) {
	t.Helper()
	srv, addr := newTestServer(t)
	c, err := client.Dial(addr, clientCfg("footprint"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mf, mb = c.Demands()
	return mf, mb, srv.Scheduler().Total() - srv.Scheduler().Schedulable()
}

// TestHandshakeAdmitsAgainstSchedulable: the "can never be granted" test
// of the handshake compares M_b with what the budget can ever offer, not
// with what happens to be free while another tenant's grant is in flight.
func TestHandshakeAdmitsAgainstSchedulable(t *testing.T) {
	_, mb, persist := tenantFootprint(t)
	srv, addr := newTestServer(t)
	sch := srv.Scheduler()
	// A grant in flight that leaves room for the newcomer's persistent
	// state but only half its M_b.
	squat := sch.Available() - persist - mb/2
	if err := sch.Submit("squatter", sched.KindBackward, squat, func() {}); err != nil {
		t.Fatal(err)
	}
	cfg := clientCfg("late")
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatalf("a demand that fits the budget was refused for the momentary remainder: %v", err)
	}
	defer c.Close()
	sch.Complete("squatter")
	ids, targets := batchFor(cfg, 5)
	if _, err := c.Step(ids, targets); err != nil {
		t.Fatal(err)
	}
}

// TestContentionIsFig3d: four tenants on a budget that holds one
// M_b plus everyone's M_f. At most one cache can stay parked, every
// other backward needs those bytes, so the server behaves as Fig. 3(d) —
// and nothing but memory behaviour may differ from an ample server:
// bit-equal losses, every serial backward either a hit or a re-forward,
// every revocation billed to a tenant, nothing held after the last Bye.
func TestContentionIsFig3d(t *testing.T) {
	const tenants, steps = 4, 6
	mf, mb, persist := tenantFootprint(t)
	if mb <= tenants*mf {
		t.Fatalf("M_b %d does not exceed %d·M_f %d: the budget below would not contend", mb, tenants, mf)
	}
	id := func(i int) string { return fmt.Sprintf("tenant-%d", i) }

	// drive runs the tenants and returns their per-step losses. The
	// prelude makes one revocation certain: tenant 0's evaluation leaves
	// its cache parked, and tenant 1's backward cannot fit beside it.
	drive := func(addr string) [][]float64 {
		clients := make([]*client.Client, tenants)
		for i := range clients {
			cfg := clientCfg(id(i))
			cfg.AdapterSeed += uint64(i)
			c, err := client.Dial(addr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = c
		}
		ids, targets := batchFor(clientCfg(""), 12)
		if _, err := clients[0].Evaluate(ids, targets); err != nil {
			t.Fatal(err)
		}
		losses := make([][]float64, tenants)
		first, err := clients[1].Step(ids, targets)
		if err != nil {
			t.Fatal(err)
		}
		losses[1] = append(losses[1], first.Loss)
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client.Client) {
				defer wg.Done()
				for len(losses[i]) < steps {
					res, err := c.Step(ids, targets)
					if err != nil {
						t.Errorf("%s: %v", id(i), err)
						return
					}
					losses[i] = append(losses[i], res.Loss)
				}
			}(i, c)
		}
		wg.Wait()
		for _, c := range clients {
			if err := c.Close(); err != nil { // Bye
				t.Error(err)
			}
		}
		return losses
	}

	_, ampleAddr := newTestServer(t)
	want := drive(ampleAddr)

	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	budget := tenants*persist + mb + tenants*mf
	reg := obs.NewRegistry()
	srv, addr := startServer(t, Config{
		Store:   store,
		GPU:     gpu.NewDevice(gpu.Spec{Name: "tight", MemoryBytes: store.BaseParamBytes() + budget}),
		Metrics: reg,
	})
	got := drive(addr)
	if t.Failed() {
		return
	}
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("%s step %d: contended loss %v != uncontended %v", id(i), k, got[i][k], want[i][k])
			}
		}
	}
	waitForTeardown(t, reg)

	sch, st := srv.Scheduler(), srv.Scheduler().Stats()
	if hits, refwd, iters := st.Claimed, srv.Stats().Reforwards, srv.Stats().Iterations; hits+refwd != iters || iters != tenants*steps {
		t.Errorf("hits %d + re-forwards %d != iterations %d (want %d)", hits, refwd, iters, tenants*steps)
	}
	if st.Revoked == 0 {
		t.Error("no revocation on a budget that cannot hold two caches")
	}
	// Every revocation carries a tenant label, and the labels sum back to
	// the scheduler's own count.
	byTenant := reg.CounterVec(obs.MetricSchedRevocations, "client")
	var labeled int64
	for _, lbl := range byTenant.Labels() {
		labeled += byTenant.With(lbl).Value()
	}
	if agg := reg.Counter(obs.MetricSchedRevocations).Value(); labeled != st.Revoked || agg != st.Revoked {
		t.Errorf("revocations: %d by tenant, %d unlabeled, %d in scheduler stats", labeled, agg, st.Revoked)
	}
	// Nothing outlives the sessions: the whole budget is free again and
	// every ledger holding is back to zero.
	if sch.Available() != budget || sch.Schedulable() != budget || sch.Parked() != 0 || sch.QueueDepth() != 0 {
		t.Errorf("after the last Bye: available %d, schedulable %d of %d, parked %d, queued %d",
			sch.Available(), sch.Schedulable(), budget, sch.Parked(), sch.QueueDepth())
	}
	if v := reg.Gauge(obs.MetricSchedParkedBytes).Value(); v != 0 {
		t.Errorf("parked bytes gauge = %d, want 0", v)
	}
	var revokedRows int64
	for _, u := range srv.Ledger().Snapshot() {
		if u.PersistentBytes != 0 || u.TransientBytes != 0 {
			t.Errorf("%s: ledger holdings outlived the session: persist=%d transient=%d", u.ID, u.PersistentBytes, u.TransientBytes)
		}
		revokedRows += u.Revocations
	}
	if revokedRows != st.Revoked {
		t.Errorf("ledger rows carry %d revocations, scheduler counted %d", revokedRows, st.Revoked)
	}
}
