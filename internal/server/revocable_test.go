package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

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
func tenantFootprint(t testing.TB) (mf, mb, persist int64) {
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
//
// One row per batch policy. With batching on (MaxSize: every tenant)
// requests do wait for memory on that budget, so some join batches while
// others keep or lose a parked cache, and every tenant's last step runs
// while a request is kept waiting, so batches form whatever the earlier
// steps' timing did. A batched iteration is neither a hit nor a
// re-forward, so the hit identity is that row's only exemption.
func TestContentionIsFig3d(t *testing.T) {
	const tenants, steps = 4, 6
	_, ampleAddr := newTestServer(t)
	want := contend(t, ampleAddr, tenants, steps, nil)

	for _, row := range []struct {
		name  string
		batch sched.BatchPolicy
	}{
		{"off", sched.BatchPolicy{}},
		{"batched", sched.BatchPolicy{MaxSize: tenants}},
	} {
		t.Run(row.name, func(t *testing.T) {
			batched := row.batch.Enabled()
			srv, reg, addr, budget := contendedServer(t, tenants, row.batch)
			var pressured *sched.Scheduler
			if batched {
				pressured = srv.Scheduler()
			}
			got := contend(t, addr, tenants, steps, pressured)
			if t.Failed() {
				return
			}
			for i := range want {
				for k := range want[i] {
					if got[i][k] != want[i][k] {
						t.Fatalf("tenant-%d step %d: contended loss %v != uncontended %v", i, k, got[i][k], want[i][k])
					}
				}
			}
			waitForTeardown(t, reg)

			sch, st := srv.Scheduler(), srv.Scheduler().Stats()
			if batched {
				if v := reg.Counter(obs.MetricBatchFormed).Value(); v == 0 {
					t.Error("no batch formed while a request waited for memory")
				}
				if iters := srv.Stats().Iterations; iters != tenants*steps {
					t.Errorf("iterations %d, want %d", iters, tenants*steps)
				}
			} else {
				if hits, refwd, iters := st.Claimed, srv.Stats().Reforwards, srv.Stats().Iterations; hits+refwd != iters || iters != tenants*steps {
					t.Errorf("hits %d + re-forwards %d != iterations %d (want %d)", hits, refwd, iters, tenants*steps)
				}
				// The same identity as a scrape sees it.
				claimed, refwd, iters := reg.Counter(obs.MetricSchedClaimed).Value(),
					reg.Counter(obs.MetricServerReforwards).Value(), reg.Counter(obs.MetricServerIterations).Value()
				if claimed+refwd != iters {
					t.Errorf("counters: claimed %d + re-forwards %d != iterations %d", claimed, refwd, iters)
				}
			}
			// Tenant 1's first backward revokes tenant 0's parked cache
			// and has none of its own: at least that one re-forwards.
			if v := reg.Counter(obs.MetricServerReforwards).Value(); v == 0 {
				t.Error("no re-forward counted on a budget that cannot hold two caches")
			}
			if st.Revoked == 0 {
				t.Error("no revocation on a budget that cannot hold two caches")
			}
			// Every revocation carries a tenant label, and the labels sum
			// back to the scheduler's own count.
			byTenant := reg.CounterVec(obs.MetricSchedRevocations, "client")
			var labeled int64
			for _, lbl := range byTenant.Labels() {
				labeled += byTenant.With(lbl).Value()
			}
			if agg := reg.Counter(obs.MetricSchedRevocations).Value(); labeled != st.Revoked || agg != st.Revoked {
				t.Errorf("revocations: %d by tenant, %d unlabeled, %d in scheduler stats", labeled, agg, st.Revoked)
			}
			// Nothing outlives the sessions: the whole budget is free again
			// and every ledger holding is back to zero.
			if sch.Available() != budget || sch.Schedulable() != budget || sch.Parked() != 0 || sch.QueueDepth() != 0 {
				t.Errorf("after the last Bye: available %d, schedulable %d of %d, parked %d, queued %d",
					sch.Available(), sch.Schedulable(), budget, sch.Parked(), sch.QueueDepth())
			}
			if v := reg.Gauge(obs.MetricSchedParkedBytes).Value(); v != 0 {
				t.Errorf("parked bytes gauge = %d, want 0", v)
			}
			var revokedRows int64
			for _, u := range srv.ledger.Snapshot() {
				if u.PersistentBytes != 0 || u.TransientBytes != 0 {
					t.Errorf("%s: ledger holdings outlived the session: persist=%d transient=%d", u.ID, u.PersistentBytes, u.TransientBytes)
				}
				revokedRows += u.Revocations
			}
			if revokedRows != st.Revoked {
				t.Errorf("ledger rows carry %d revocations, scheduler counted %d", revokedRows, st.Revoked)
			}
		})
	}
}

// BenchmarkContendedBatching compares batching on and off where a
// batchable request is routed to the batch engine at all: on
// TestContentionIsFig3d's budget, where requests wait for memory. It
// reports steps/s over every tenant, set-up included, and the mean
// scheduler wait per iteration, which does not count a batch's hold.
// -count repeats one side before starting the other, so compare pairs of
// single runs, alternating which side goes first:
//
//	go test -run '^$' -bench 'ContendedBatching/on$' -benchtime 100x ./internal/server
//	go test -run '^$' -bench 'ContendedBatching/off$' -benchtime 100x ./internal/server
func BenchmarkContendedBatching(b *testing.B) {
	const tenants = 4
	for _, bc := range []struct {
		name  string
		batch sched.BatchPolicy
	}{{"off", sched.BatchPolicy{}}, {"on", sched.BatchPolicy{MaxSize: tenants}}} {
		b.Run(bc.name, func(b *testing.B) {
			srv, _, addr, _ := contendedServer(b, tenants, bc.batch)
			start := time.Now()
			contend(b, addr, tenants, b.N, nil)
			b.ReportMetric(float64(tenants*b.N)/time.Since(start).Seconds(), "steps/s")
			b.ReportMetric(float64(srv.Stats().AvgSchedWait.Microseconds())/1e3, "sched-wait-ms/iter")
		})
	}
}

// contendedServer serves TestContentionIsFig3d's budget for tenants
// clientCfg tenants, with batch as its batch policy: everyone's
// persistent state and M_f plus a single M_b, so at most one cache stays
// parked and every other backward needs its bytes. It returns the
// server, its registry, its address and the budget.
func contendedServer(t testing.TB, tenants int, batch sched.BatchPolicy) (*Server, *obs.Registry, string, int64) {
	t.Helper()
	mf, mb, persist := tenantFootprint(t)
	n := int64(tenants)
	if mb <= n*mf {
		t.Fatalf("M_b %d does not exceed %d·M_f %d: the budget would not contend", mb, tenants, mf)
	}
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	budget := n*persist + mb + n*mf
	reg := obs.NewRegistry()
	srv, addr := startServer(t, Config{
		Store:   store,
		GPU:     gpu.NewDevice(gpu.Spec{Name: "tight", MemoryBytes: store.BaseParamBytes() + budget}, reg),
		Batch:   batch,
		Metrics: reg,
	})
	return srv, reg, addr, budget
}

// contend is TestContentionIsFig3d's drive: tenants dial addr, tenant 0
// evaluates (leaving its cache parked), tenant 1 steps once alone (its
// backward cannot fit beside that cache), then everyone steps
// concurrently until each has steps losses, and says Bye. Given the
// server's scheduler, each tenant's last step runs while a request waits
// in it (pressure), released after the last Bye.
func contend(t testing.TB, addr string, tenants, steps int, sch *sched.Scheduler) [][]float64 {
	t.Helper()
	clients := make([]*client.Client, tenants)
	for i := range clients {
		cfg := clientCfg(fmt.Sprintf("tenant-%d", i))
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
	stepTo := func(n int) {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client.Client) {
				defer wg.Done()
				rest, err := stepLosses(c, ids, targets, n-len(losses[i]), nil)
				if err != nil {
					t.Errorf("tenant-%d: %v", i, err)
				}
				losses[i] = append(losses[i], rest...)
			}(i, c)
		}
		wg.Wait()
	}
	release := func() {}
	if sch != nil {
		stepTo(steps - 1)
		release = pressure(t, sch)
	}
	stepTo(steps)
	for _, c := range clients {
		if err := c.Close(); err != nil { // Bye
			t.Error(err)
		}
	}
	release()
	return losses
}
