package core

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/fleet"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/tensor"
)

// migBatch generates the deterministic id/target stream the migration
// tests feed both the migrated and the control client.
func migBatch(r *tensor.RNG, n int) (ids, targets []int) {
	ids = make([]int, n)
	targets = make([]int, n)
	vocab := model.OPTTiny().Vocab
	for i := range ids {
		ids[i] = r.Intn(vocab)
		targets[i] = r.Intn(vocab)
	}
	return ids, targets
}

func migClientConfig(id string) client.Config {
	return client.Config{
		ClientID:    id,
		Model:       model.OPTTiny(),
		WeightSeed:  5,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: 3,
		Batch:       1,
		Seq:         8,
		Migrate:     true,
	}
}

// runMigSteps drives the micro-step schedule both clients share:
// pairs of accumulate-then-apply, so a migration can land
// mid-accumulation and the snapshot must carry unapplied gradients.
// start is the absolute iteration index — the apply cadence must not
// reset when a run is driven in two segments around a migration.
func runMigSteps(t *testing.T, c *client.Client, data *tensor.RNG, start, steps int) []uint64 {
	t.Helper()
	losses := make([]uint64, 0, steps)
	for i := start; i < start+steps; i++ {
		ids, targets := migBatch(data, 8)
		res, err := c.MicroStep(ids, targets, i%2 == 1)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		losses = append(losses, math.Float64bits(res.Loss))
	}
	return losses
}

// runMigGroups drives the same schedule as runMigSteps through the
// pipelined engine: each accumulate-then-apply pair is one
// StepPipelined group of two microbatches.
func runMigGroups(t *testing.T, c *client.Client, data *tensor.RNG, groups int) []uint64 {
	t.Helper()
	losses := make([]uint64, 0, 2*groups)
	for g := 0; g < groups; g++ {
		mbs := make([]client.MicroBatch, 2)
		for i := range mbs {
			mbs[i].IDs, mbs[i].Targets = migBatch(data, 8)
		}
		results, err := c.StepPipelined(mbs)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		for _, res := range results {
			losses = append(losses, math.Float64bits(res.Loss))
		}
	}
	return losses
}

// hookConn calls before(n) ahead of the client's n-th frame (the wire
// layer issues exactly one Write per frame), which lets a test act at
// an exact point inside a pipelined group.
type hookConn struct {
	net.Conn
	writes int
	before func(n int)
}

func (c *hookConn) Write(p []byte) (int, error) {
	c.writes++
	if c.before != nil {
		c.before(c.writes)
	}
	return c.Conn.Write(p)
}

// TestLiveMigrationDeterminism is the correctness pin for the whole
// migration plane: a client moved from server A to server B mid-run
// (mid gradient accumulation, even) must produce bitwise-identical
// losses to a client that never moved, and no iteration may be lost.
// The pipelined variant orders the migration from inside a
// StepPipelined group — after the group's first backward is written,
// so the redirect displaces the group's second forward — and
// additionally pins that a Migrate client still overlaps.
func TestLiveMigrationDeterminism(t *testing.T) {
	t.Run("microstep", func(t *testing.T) { testLiveMigration(t, false) })
	t.Run("pipelined", func(t *testing.T) { testLiveMigration(t, true) })
}

func testLiveMigration(t *testing.T, pipelined bool) {
	depA, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5, ServerID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer depA.Close()
	depB, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5, ServerID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer depB.Close()
	addrA, err := depA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := depB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminA := httptest.NewServer(depA.Server.AdminHandler())
	defer adminA.Close()
	adminB := httptest.NewServer(depB.Server.AdminHandler())
	defer adminB.Close()

	var moves []string
	reg := obs.NewRegistry()
	cfg := migClientConfig("mig")
	cfg.Metrics = reg
	cfg.OnMigrate = func(target string) { moves = append(moves, target) }
	raw, err := net.Dial("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	conn := &hookConn{Conn: raw}
	c, err := client.New(conn, cfg)
	if err != nil {
		raw.Close()
		t.Fatal(err)
	}
	defer c.Close()
	if !c.MigrateNegotiated() {
		t.Fatal("migration feature not negotiated")
	}

	// Order the migration: A snapshots at the next forward boundary
	// (we are mid-accumulation after 3 micro-steps), stages at B, and
	// redirects the client.
	const pre, post = 3, 5
	orderMigration := func() {
		order, _ := json.Marshal(fleet.MigrateOrder{
			ClientID:    "mig",
			TargetAddr:  addrB,
			TargetAdmin: adminB.URL,
			Token:       42,
		})
		resp, err := http.Post(adminA.URL+"/admin/migrate", "application/json", bytes.NewReader(order))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("migrate order: %s", resp.Status)
		}
	}
	data := tensor.NewRNG(11)
	var losses []uint64
	if pipelined {
		// Frame 1 is the Hello and every iteration writes a forward then
		// a backward, so frame 2·pre+1 is iteration pre-1's backward: the
		// order is registered before it leaves, and the next ForwardReq
		// the server reads — iteration pre, second of its group — is the
		// one it redirects.
		conn.before = func(n int) {
			if n == 2*pre+1 {
				orderMigration()
			}
		}
		losses = runMigGroups(t, c, data, (pre+post)/2)
	} else {
		losses = runMigSteps(t, c, data, 0, pre)
		orderMigration()
		losses = append(losses, runMigSteps(t, c, data, pre, post)...)
	}
	if c.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", c.Migrations())
	}
	if len(moves) != 1 || moves[0] != addrB {
		t.Fatalf("moves = %v, want [%s]", moves, addrB)
	}

	// Zero lost iterations: every micro-step was served exactly once,
	// split across the two servers.
	itersA := depA.Server.Stats().Iterations
	itersB := depB.Server.Stats().Iterations
	if itersA+itersB != pre+post {
		t.Fatalf("iterations A=%d B=%d, want total %d", itersA, itersB, pre+post)
	}
	if itersB == 0 {
		t.Fatal("no iterations served by the target server")
	}
	if pipelined {
		if itersA != pre {
			t.Fatalf("source served %d iterations, want %d (redirect must land mid-group)", itersA, pre)
		}
		if n := reg.Histogram(obs.MetricOverlapHiddenSeconds, nil).Count(); n == 0 {
			t.Fatal("pipelined Migrate client recorded no overlap samples")
		}
	}

	// Control: the same schedule against a single server, bit-compared.
	depC, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5, ServerID: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer depC.Close()
	addrC, err := depC.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := client.Dial(addrC, migClientConfig("mig"))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	var want []uint64
	if pipelined {
		want = runMigGroups(t, ctrl, tensor.NewRNG(11), (pre+post)/2)
	} else {
		want = runMigSteps(t, ctrl, tensor.NewRNG(11), 0, pre+post)
	}
	for i := range want {
		if losses[i] != want[i] {
			t.Fatalf("loss %d diverged after migration: %x vs control %x", i, losses[i], want[i])
		}
	}
}

// TestMigrationTraceStitch pins the cross-server stitch point of trace
// federation: the source server's migrate:out span carries the trace
// ID of the iteration displaced by the migration, the destination
// replays that same iteration under the same ID, and the destination
// records a migrate:in span on the session's track — so a merged fleet
// trace shows one IterTraceID spanning both processes.
func TestMigrationTraceStitch(t *testing.T) {
	trA := obs.NewTracer(obs.NewWallClock())
	trA.SetProcess(1, "menos-server-1")
	trB := obs.NewTracer(obs.NewWallClock())
	trB.SetProcess(2, "menos-server-2")
	depA, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5, ServerID: 1, Tracer: trA})
	if err != nil {
		t.Fatal(err)
	}
	defer depA.Close()
	depB, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5, ServerID: 2, Tracer: trB})
	if err != nil {
		t.Fatal(err)
	}
	defer depB.Close()
	addrA, err := depA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := depB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminB := httptest.NewServer(depB.Server.AdminHandler())
	defer adminB.Close()
	adminA := httptest.NewServer(depA.Server.AdminHandler())
	defer adminA.Close()

	cfg := migClientConfig("mig")
	cfg.Tracer = obs.NewTracer(obs.NewWallClock())
	c, err := client.Dial(addrA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const pre, post = 2, 2
	data := tensor.NewRNG(11)
	runMigSteps(t, c, data, 0, pre)
	order, _ := json.Marshal(fleet.MigrateOrder{
		ClientID: "mig", TargetAddr: addrB, TargetAdmin: adminB.URL, Token: 7,
	})
	resp, err := http.Post(adminA.URL+"/admin/migrate", "application/json", bytes.NewReader(order))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runMigSteps(t, c, data, pre, post)
	if c.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", c.Migrations())
	}

	// The displaced ForwardReq is iteration `pre` — its trace ID is the
	// stitch key.
	stitch := obs.IterTraceID("mig", pre)
	var out *obs.Span
	for _, sp := range trA.Spans() {
		if sp.Name == "migrate:out" && sp.Cat == "migrate" {
			out = &sp
			break
		}
	}
	if out == nil {
		t.Fatal("source tracer has no migrate:out span")
	}
	if out.TraceID != stitch || out.Track != "mig" {
		t.Fatalf("migrate:out span = %+v, want trace %016x on track mig", out, stitch)
	}
	haveIn, haveReplay := false, false
	for _, sp := range trB.Spans() {
		if sp.Name == "migrate:in" && sp.Track == "mig" {
			haveIn = true
		}
		if sp.Cat == "compute" && sp.TraceID == stitch {
			haveReplay = true
		}
	}
	if !haveIn {
		t.Fatal("destination tracer has no migrate:in span")
	}
	if !haveReplay {
		t.Fatalf("destination never recorded compute spans under the stitch ID %016x", stitch)
	}
}

// TestMigrationAbortKeepsServing: an order whose snapshot transfer
// fails (unreachable target admin) must not kill the session — the
// client keeps training on the source, still bit-identical to an
// undisturbed run.
func TestMigrationAbortKeepsServing(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5, ServerID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(dep.Server.AdminHandler())
	defer admin.Close()

	c, err := client.Dial(addr, migClientConfig("mig"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := tensor.NewRNG(11)
	losses := runMigSteps(t, c, data, 0, 2)

	order, _ := json.Marshal(fleet.MigrateOrder{
		ClientID:    "mig",
		TargetAddr:  "127.0.0.1:1",
		TargetAdmin: "http://127.0.0.1:1", // nothing listens here
		Token:       7,
	})
	resp, err := http.Post(admin.URL+"/admin/migrate", "application/json", bytes.NewReader(order))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("migrate order: %s", resp.Status)
	}

	losses = append(losses, runMigSteps(t, c, data, 2, 2)...)
	if c.Migrations() != 0 {
		t.Fatalf("migrations = %d, want 0 (aborted)", c.Migrations())
	}

	depC, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5, ServerID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer depC.Close()
	addrC, err := depC.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := client.Dial(addrC, migClientConfig("mig"))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	want := runMigSteps(t, ctrl, tensor.NewRNG(11), 0, 4)
	for i := range want {
		if losses[i] != want[i] {
			t.Fatalf("loss %d diverged after aborted migration: %x vs %x", i, losses[i], want[i])
		}
	}
}

// TestMigrationRejectsUnknownSession: ordering a migration for a
// client that is not resident is a 404, and a stale resume token is
// rejected at handshake.
func TestMigrationOrderValidation(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Model: model.OPTTiny(), WeightSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(dep.Server.AdminHandler())
	defer admin.Close()

	order, _ := json.Marshal(fleet.MigrateOrder{
		ClientID: "ghost", TargetAddr: "x", TargetAdmin: "http://x", Token: 1,
	})
	resp, err := http.Post(admin.URL+"/admin/migrate", "application/json", bytes.NewReader(order))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost order: %s, want 404", resp.Status)
	}

	// Missing fields are a 400.
	resp, err = http.Post(admin.URL+"/admin/migrate", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty order: %s, want 400", resp.Status)
	}
}
