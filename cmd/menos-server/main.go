// Command menos-server runs a real Menos split fine-tuning server: it
// preloads one shared base model and serves any number of concurrent
// clients with on-demand GPU memory allocation and FCFS+backfill
// scheduling.
//
// Usage:
//
//	menos-server [-addr :7600] [-model opt-tiny] [-seed 42]
//	             [-gpu-gb 32] [-quiet]
//	             [-batch-size N] [-batch-hold 2ms]
//	             [-wire-compress off|fp16|int8]
//	             [-metrics-addr :9090] [-trace-buffer-mb 8]
//	             [-flight-dir DIR] [-pprof] [-server-id 0]
//
// -batch-size enables cross-client batch formation: up to N compatible
// LoRA iteration requests coalesce into one batched kernel invocation
// over the shared base, each client keeping its own adapter via
// per-row dispatch (docs/BATCHING.md). Results are bit-identical to
// serial execution; -batch-hold bounds how long a partial batch waits
// for co-tenants.
//
// -wire-compress quantizes the activation tensors this server sends to
// clients that negotiated the compression capability (fp16 halves,
// int8 quarters the payload bytes; docs/WIRE.md). Legacy clients and
// "off" keep the wire byte-identical to a pre-compression server.
//
// With -metrics-addr set, a telemetry endpoint serves Prometheus text
// on /metrics (per-tenant {client="..."} series included), JSON on
// /metrics.json, health as JSON on /healthz, the per-tenant load
// document on /loadz (the fleet.LoadSnapshot consumed by menos-top),
// the fleet admin plane (migration orders, snapshot staging — see
// docs/FLEET.md and menos-fleetd) under /admin/,
// and a Chrome trace of recent request spans on /trace (pageable with
// ?since=/?window=; spans are kept in a ring bounded by
// -trace-buffer-mb). A runtime sampler publishes the menos_go_* gauges
// (heap, goroutines, GC). With -flight-dir set, a flight recorder
// snapshots the trace window and metrics to size-bounded JSONL on
// sheds, OOMs and admission state changes (see docs/OBSERVABILITY.md).
// -pprof additionally mounts net/http/pprof under /debug/pprof/ on the
// metrics mux and makes flight snapshots capture heap and goroutine
// profiles next to the JSONL.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"menos/internal/checkpoint"
	"menos/internal/core"
	"menos/internal/gpu"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "menos-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("menos-server", flag.ContinueOnError)
	addr := fs.String("addr", ":7600", "listen address")
	modelName := fs.String("model", "opt-tiny", "hosted base model (opt-tiny, llama-tiny)")
	seed := fs.Uint64("seed", 42, "model owner's weight seed")
	gpuGB := fs.Int64("gpu-gb", 32, "simulated GPU memory budget in GiB")
	quantFlag := fs.String("quant", "", "quantize the shared base: int8 or int4 (default fp32)")
	weights := fs.String("weights", "", "load base weights from a checkpoint file instead of the seed")
	exportWeights := fs.String("export-weights", "", "write the base weights to a file and exit (model distribution)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics, /metrics.json, /trace and /healthz on this address (e.g. :9090)")
	traceBudget := fs.Int64("trace-buffer-mb", 8, "ring-buffer budget for continuous span capture in MiB (with -metrics-addr)")
	flightDir := fs.String("flight-dir", "", "write flight-recorder snapshots (trace window + metrics JSONL) to this directory on shed/OOM/admission events")
	pprofFlag := fs.Bool("pprof", false, "mount /debug/pprof/ on the metrics mux and capture heap/goroutine profiles in flight snapshots")
	serverID := fs.Int("server-id", 0, "fleet identity echoed by /loadz")
	tenantCap := fs.Int("tenant-cap", 0, "max per-client metric series before aggregating into {client=\"other\"} (0 = default)")
	sloP99 := fs.Duration("slo-p99", 0, "grant-wait p99 target enabling adaptive admission control (0 disables; see docs/ADMISSION.md)")
	sloWindow := fs.Duration("slo-window", 0, "admission-control sliding window (default 8x the p99 target)")
	wireCompress := fs.String("wire-compress", "off", "compress outbound activation payloads for negotiating clients: off, fp16 or int8 (docs/WIRE.md)")
	batchSize := fs.Int("batch-size", 0, "coalesce up to this many compatible LoRA requests per kernel invocation (0 disables; see docs/BATCHING.md)")
	batchHold := fs.Duration("batch-hold", 0, "how long batch formation waits for co-tenants to join (default sched.DefaultMaxHold)")
	quiet := fs.Bool("quiet", false, "disable serving logs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := model.ConfigByName(*modelName)
	if err != nil {
		return err
	}
	if *exportWeights != "" {
		m, err := model.New(tensor.NewRNG(*seed), cfg)
		if err != nil {
			return err
		}
		if err := checkpoint.SaveModelFile(*exportWeights, m); err != nil {
			return err
		}
		fmt.Printf("menos-server: exported %s base weights (seed %d) to %s\n",
			cfg.Name, *seed, *exportWeights)
		return nil
	}
	var prec quant.Precision
	switch *quantFlag {
	case "":
	case "int8":
		prec = quant.Int8
	case "int4":
		prec = quant.Int4
	default:
		return fmt.Errorf("unknown quantization %q (want int8 or int4)", *quantFlag)
	}
	wireCodec, err := quant.ParseCodec(*wireCompress)
	if err != nil {
		return fmt.Errorf("-wire-compress: %w", err)
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "menos-server ", log.LstdFlags|log.Lmsgprefix)
	}
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metricsAddr != "" || *flightDir != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(obs.NewWallClock())
		// Ring capture: old spans are evicted under the byte budget
		// instead of new ones being dropped, so /trace and the flight
		// recorder always hold the most recent window.
		tracer.EnableRing(*traceBudget << 20)
		// Distinct per-server process identity: fleetd's merged trace
		// renders each server as its own process row, and the pid must
		// differ per server for the rows not to collapse.
		pname := "menos-server"
		pid := 1
		if *serverID != 0 {
			pname = fmt.Sprintf("menos-server-%d", *serverID)
			pid = *serverID
		}
		tracer.SetProcess(pid, pname)
		tracer.Instrument(reg)
	}
	var flight *obs.FlightRecorder
	if *flightDir != "" {
		flight, err = obs.NewFlightRecorder(obs.FlightConfig{
			Dir: *flightDir,
			// Profile capture is wall-clock work; it rides the same
			// opt-in as the pprof endpoints.
			CaptureProfiles: *pprofFlag,
		}, reg, tracer)
		if err != nil {
			return fmt.Errorf("flight recorder: %w", err)
		}
		defer flight.Close()
	}
	dep, err := core.NewDeployment(core.DeploymentConfig{
		Model:       cfg,
		WeightSeed:  *seed,
		GPU:         gpu.Spec{Name: "configured", MemoryBytes: *gpuGB << 30},
		WeightsFile: *weights,
		BaseQuant:   prec,
		SLO:         sched.SLO{TargetP99: *sloP99, Window: *sloWindow},
		Batch:       sched.BatchPolicy{MaxSize: *batchSize, MaxHold: *batchHold},
		WireCodec:   wireCodec,
		Logger:      logger,
		Metrics:     reg,
		Tracer:      tracer,
		Flight:      flight,
		ServerID:    *serverID,
		TenantCap:   *tenantCap,
	})
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		stopSampler := obs.StartRuntimeSampler(reg, obs.RuntimeSamplerConfig{})
		defer stopSampler()
		admission := func() string { return dep.Server.Scheduler().AdmissionState().String() }
		opts := []obs.HandlerOption{
			obs.WithAdmission(admission),
			obs.WithLoadz(func() any { return dep.Server.LoadSnapshot() }),
			// Fleet identity: /healthz echoes -server-id and the bound
			// serving address (read per request — the listener binds
			// after this endpoint starts), so a polling control plane
			// detects a different process answering on a reused port.
			obs.WithIdentity(func() (int, string) { return *serverID, dep.Addr() }),
		}
		if *pprofFlag {
			opts = append(opts, obs.WithPprof())
		}
		// The admin plane (migration orders, snapshot staging) rides
		// the metrics listener under /admin/ — both are loopback-scoped
		// operator surfaces today.
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(reg, tracer, opts...))
		mux.Handle("/admin/", dep.Server.AdminHandler())
		go func() {
			if serr := http.Serve(ml, mux); serr != nil && logger != nil {
				logger.Printf("metrics endpoint: %v", serr)
			}
		}()
		fmt.Printf("menos-server: telemetry on http://%s/metrics\n", ml.Addr())
	}
	bound, err := dep.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("menos-server: serving %s (seed %d) on %s\n", cfg.Name, *seed, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		_ = dep.Close()
	}()
	return dep.Wait()
}
