//go:build e2e

// Package e2e drives the real binaries — menos-server, menos-client,
// menos-fleetd — as separate processes on loopback and asserts the
// control plane's headline guarantee end to end: a client live-
// migrated between two servers mid-run finishes with the same final
// loss, bit for bit, as a client that never moved, and no iteration
// is lost in the move.
//
// Run via `make e2e` (which is what CI's e2e job runs). The test
// builds the binaries itself with the ambient Go toolchain; process
// logs and server flight recordings are written to
// $MENOS_E2E_ARTIFACTS (or the test temp dir) so CI can upload them
// when the test fails.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// steps is the fine-tuning run length. Long enough that the drain
// lands while the client is still training (fleetd needs two or three
// 150 ms polls to see the client and act; a step is a few
// milliseconds on the AVX2 tile), short enough to keep the job inside
// the CI timeout on the portable one.
const steps = 200

func TestLiveMigrationAcrossProcesses(t *testing.T) {
	artifacts := os.Getenv("MENOS_E2E_ARTIFACTS")
	if artifacts == "" {
		artifacts = t.TempDir()
	}
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Logf("artifacts in %s", artifacts)
	bin := buildBinaries(t)

	httpc := &http.Client{Timeout: 5 * time.Second}

	// Two managed servers plus the control plane.
	srvA := startServer(t, bin, artifacts, "server1", 1)
	srvB := startServer(t, bin, artifacts, "server2", 2)
	waitHealthy(t, httpc, srvA.metricsURL, 1)
	waitHealthy(t, httpc, srvB.metricsURL, 2)

	fleetdPort := freePort(t)
	fleetdURL := fmt.Sprintf("http://127.0.0.1:%d", fleetdPort)
	startProc(t, artifacts, "fleetd", bin("menos-fleetd"),
		"-server", fmt.Sprintf("id=1,addr=%s,metrics=%s,admin=%s", srvA.addr, srvA.metricsURL, srvA.metricsURL),
		"-server", fmt.Sprintf("id=2,addr=%s,metrics=%s,admin=%s", srvB.addr, srvB.metricsURL, srvB.metricsURL),
		"-listen", fmt.Sprintf("127.0.0.1:%d", fleetdPort),
		"-poll", "150ms",
		// The telemetry plane under test: the merged fleet trace.
		"-federate-traces",
	)
	waitFor(t, "fleetd sees 2 healthy servers", 30*time.Second, func() error {
		snap, err := fleetz(httpc, fleetdURL)
		if err != nil {
			return err
		}
		healthy := 0
		for _, s := range snap.Servers {
			if s.Healthy {
				healthy++
			}
		}
		if healthy != 2 {
			return fmt.Errorf("healthy = %d", healthy)
		}
		return nil
	})

	// Run 1 (migrated): fleetd places the arriving client, then we
	// drain its server mid-run and the control plane moves it.
	migLoss := filepath.Join(artifacts, "loss-migrated.txt")
	migClient := startProc(t, artifacts, "client-migrated", bin("menos-client"),
		"-fleetd", fleetdURL, "-id", "mig", "-migrate",
		"-steps", fmt.Sprint(steps), "-batch", "2", "-seq", "16",
		"-final-loss-out", migLoss,
		// A client-side tracer makes the client offer trace context, so
		// every iteration's deterministic trace ID rides the wire into
		// both servers' span rings — the stitch the merged fleet trace
		// below is asserted on.
		"-metrics-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t)),
	)

	var hostID int
	waitFor(t, "client resident on a server", 30*time.Second, func() error {
		snap, err := fleetz(httpc, fleetdURL)
		if err != nil {
			return err
		}
		for _, s := range snap.Servers {
			if s.Load.Clients > 0 {
				hostID = s.Endpoint.ID
				return nil
			}
		}
		return fmt.Errorf("no server reports a resident client")
	})
	t.Logf("client placed on server %d; draining it", hostID)
	resp, err := httpc.Post(fmt.Sprintf("%s/drain?id=%d", fleetdURL, hostID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: %s", resp.Status)
	}

	if err := waitProc(migClient, 120*time.Second); err != nil {
		t.Fatalf("migrated client: %v\n%s", err, tailLog(artifacts, "client-migrated"))
	}
	clientLog := tailLog(artifacts, "client-migrated")
	if !strings.Contains(clientLog, "live-migrated to") {
		t.Fatalf("client log shows no migration:\n%s", clientLog)
	}

	// The control plane must have driven at least one migration...
	metrics := getBody(t, httpc, fleetdURL+"/metrics")
	if !promCounterAtLeast(metrics, "menos_fleetd_migrations_total", 1) {
		t.Fatalf("menos_fleetd_migrations_total < 1 in fleetd metrics:\n%s", metrics)
	}
	// ...and no iteration may be lost: the two servers' per-tenant
	// ledgers for this client must sum to exactly the step count.
	total := ledgerIterations(t, httpc, srvA.metricsURL, "mig") +
		ledgerIterations(t, httpc, srvB.metricsURL, "mig")
	if total != steps {
		t.Fatalf("iterations across servers = %d, want %d (lost or duplicated work)", total, steps)
	}

	// Trace federation: fleetd's merged fleet trace must stitch the
	// migration — the displaced iteration's trace ID appears under BOTH
	// server processes (migrate:out on the source, the replayed
	// iteration's compute on the destination). The cursor loop lags the
	// client by up to one poll tick, so wait for it.
	var fleetTrace string
	t.Cleanup(func() {
		_ = os.WriteFile(filepath.Join(artifacts, "fleet-trace.json"), []byte(fleetTrace), 0o644)
	})
	waitFor(t, "merged fleet trace stitches the migration", 15*time.Second, func() error {
		resp, err := httpc.Get(fleetdURL + "/trace")
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		fleetTrace = buf.String()
		return stitched(fleetTrace)
	})

	// A healthy migration run sheds nothing, has no GPU allocation
	// refused and meets no stranger on a server's port: each of these
	// families is present on /metrics.json and reads 0. They are what an
	// operator's shed-storm, GPU-OOM and identity rules judge
	// (docs/OBSERVABILITY.md). The documents are kept as artifacts.
	for _, probe := range []struct {
		name, base string
		zero       []string
	}{
		{"server1", srvA.metricsURL, []string{"menos_sched_admission_shed_total", "menos_gpu_oom_total"}},
		{"server2", srvB.metricsURL, []string{"menos_sched_admission_shed_total", "menos_gpu_oom_total"}},
		{"fleetd", fleetdURL, []string{"menos_fleetd_identity_mismatches_total"}},
	} {
		body := getBody(t, httpc, probe.base+"/metrics.json")
		if err := os.WriteFile(filepath.Join(artifacts, "metrics-"+probe.name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s /metrics.json: %v\n%s", probe.name, err, body)
		}
		for _, name := range probe.zero {
			v, ok := doc.Counters[name]
			if !ok {
				t.Fatalf("%s /metrics.json has no %s:\n%s", probe.name, name, body)
			}
			if v != 0 {
				t.Fatalf("%s: %s = %d in a healthy run:\n%s", probe.name, name, v, body)
			}
		}
	}

	// Run 2 (control): same seeds, same schedule, one untouched
	// server, no migration.
	srvC := startServer(t, bin, artifacts, "server3", 3)
	waitHealthy(t, httpc, srvC.metricsURL, 3)
	ctrlLoss := filepath.Join(artifacts, "loss-control.txt")
	ctrlClient := startProc(t, artifacts, "client-control", bin("menos-client"),
		"-addr", srvC.addr, "-id", "mig",
		"-steps", fmt.Sprint(steps), "-batch", "2", "-seq", "16",
		"-final-loss-out", ctrlLoss,
	)
	if err := waitProc(ctrlClient, 120*time.Second); err != nil {
		t.Fatalf("control client: %v\n%s", err, tailLog(artifacts, "client-control"))
	}

	// The determinism pin: final loss bits, not rounded decimals.
	migBits := readPin(t, migLoss)
	ctrlBits := readPin(t, ctrlLoss)
	if migBits != ctrlBits {
		t.Fatalf("final loss diverged: migrated run %s vs control %s", migBits, ctrlBits)
	}
	t.Logf("migrated and control runs agree: final loss bits %s", migBits)
}

// serverProc is one running menos-server.
type serverProc struct {
	addr       string // split-protocol dial address
	metricsURL string // metrics + admin base URL
}

func startServer(t *testing.T, bin func(string) string, artifacts, name string, id int) serverProc {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	metrics := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	startProc(t, artifacts, name, bin("menos-server"),
		"-addr", addr, "-metrics-addr", metrics,
		"-server-id", fmt.Sprint(id),
		"-flight-dir", filepath.Join(artifacts, "flight-"+name),
		// Admission control on this server's own scheduler: a loopback
		// fleet sits far under the 2s target, so the zero-shed
		// assertion holds, and the shed counter is registered.
		"-slo-p99", "2s",
	)
	return serverProc{addr: addr, metricsURL: "http://" + metrics}
}

// stitched reports whether the merged Chrome trace carries at least one
// trace ID under two or more distinct process IDs — the signature of a
// migrated iteration's spans spanning both servers.
func stitched(trace string) error {
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			Args struct {
				TraceID string `json:"trace_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		return fmt.Errorf("merged trace: %v", err)
	}
	pidsByID := make(map[string]map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args.TraceID == "" {
			continue
		}
		if pidsByID[ev.Args.TraceID] == nil {
			pidsByID[ev.Args.TraceID] = make(map[int]bool)
		}
		pidsByID[ev.Args.TraceID][ev.PID] = true
	}
	for _, pids := range pidsByID {
		if len(pids) >= 2 {
			return nil
		}
	}
	return fmt.Errorf("no trace ID spans two processes yet (%d trace IDs seen)", len(pidsByID))
}

// buildBinaries compiles the three daemons once into a temp dir and
// returns a path lookup.
func buildBinaries(t *testing.T) func(string) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"../cmd/menos-server", "../cmd/menos-client", "../cmd/menos-fleetd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(name string) string { return filepath.Join(dir, name) }
}

// startProc launches one process with stdout+stderr teed to an
// artifact log, and kills it at test cleanup.
func startProc(t *testing.T, artifacts, name, path string, args ...string) *exec.Cmd {
	t.Helper()
	logf, err := os.Create(filepath.Join(artifacts, name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
		logf.Close()
	})
	return cmd
}

// waitProc waits for a process to exit cleanly within the deadline.
func waitProc(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		return fmt.Errorf("timed out after %v", timeout)
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if last = cond(); last == nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s: %v", what, last)
}

// waitHealthy waits for a server's /healthz to answer ok with the
// expected fleet identity.
func waitHealthy(t *testing.T, httpc *http.Client, base string, wantID int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("server %d healthy at %s", wantID, base), 30*time.Second, func() error {
		var doc struct {
			Status   string `json:"status"`
			ServerID *int   `json:"server_id"`
		}
		if err := getJSON(httpc, base+"/healthz", &doc); err != nil {
			return err
		}
		if doc.Status != "ok" {
			return fmt.Errorf("status %q", doc.Status)
		}
		if doc.ServerID == nil || *doc.ServerID != wantID {
			return fmt.Errorf("server_id = %v, want %d", doc.ServerID, wantID)
		}
		return nil
	})
}

// fleetzDoc is the subset of fleetd's /fleetz the test reads.
type fleetzDoc struct {
	Servers []struct {
		Endpoint struct {
			ID int `json:"id"`
		} `json:"endpoint"`
		Healthy bool `json:"healthy"`
		Load    struct {
			Clients int `json:"clients"`
		} `json:"load"`
	} `json:"servers"`
}

func fleetz(httpc *http.Client, base string) (fleetzDoc, error) {
	var doc fleetzDoc
	err := getJSON(httpc, base+"/fleetz", &doc)
	return doc, err
}

func getJSON(httpc *http.Client, url string, into any) error {
	resp, err := httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func getBody(t *testing.T, httpc *http.Client, url string) string {
	t.Helper()
	resp, err := httpc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// ledgerIterations reads one client's iteration count from a server's
// /loadz per-tenant ledger (0 when the client never visited).
func ledgerIterations(t *testing.T, httpc *http.Client, base, clientID string) int64 {
	t.Helper()
	var doc struct {
		Clients []struct {
			ID         string `json:"id"`
			Iterations int64  `json:"iterations"`
		} `json:"clients"`
	}
	if err := getJSON(httpc, base+"/loadz", &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Clients {
		if c.ID == clientID {
			return c.Iterations
		}
	}
	return 0
}

// promCounterAtLeast reports whether the Prometheus text exposition
// contains counter name with a value >= want.
func promCounterAtLeast(text, name string, want float64) bool {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil && v >= want {
				return true
			}
		}
	}
	return false
}

// readPin reads a -final-loss-out file: 16 hex digits of float64 bits.
func readPin(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pin := strings.TrimSpace(string(data))
	if len(pin) != 16 {
		t.Fatalf("pin %q in %s is not 16 hex digits", pin, path)
	}
	return pin
}

// tailLog returns the last few KiB of a process's artifact log for
// failure messages.
func tailLog(artifacts, name string) string {
	data, err := os.ReadFile(filepath.Join(artifacts, name+".log"))
	if err != nil {
		return fmt.Sprintf("(no log: %v)", err)
	}
	if len(data) > 8<<10 {
		data = data[len(data)-(8<<10):]
	}
	return string(data)
}
