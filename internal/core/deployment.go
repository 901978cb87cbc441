// Package core assembles the Menos framework's pieces — shared
// parameter store, scheduler, server, clients — into deployable units:
// the integration layer behind the public menos package and the
// command-line tools.
package core

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"menos/internal/checkpoint"
	"menos/internal/gpu"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/server"
	"menos/internal/share"
	"menos/internal/tensor"
)

// DeploymentConfig configures a full Menos server deployment.
type DeploymentConfig struct {
	// Model selects the hosted base model by preset name (e.g.
	// "opt-tiny") or explicit config.
	Model model.Config
	// WeightSeed is the model owner's initialization seed; clients
	// must be built with the same seed.
	WeightSeed uint64
	// GPU selects the simulated device budget (default V100).
	GPU gpu.Spec
	// WeightsFile optionally loads the base weights from a checkpoint
	// exported with checkpoint.SaveModelFile, overriding the
	// seed-derived initialization — how a real pre-trained model is
	// deployed.
	WeightsFile string
	// SLO, when enabled, activates adaptive admission control on the
	// server's scheduler (docs/ADMISSION.md); the zero value keeps the
	// plain Algorithm-2 behaviour.
	SLO sched.SLO
	// Batch, when enabled, coalesces compatible LoRA iteration
	// requests into batched kernel invocations over the shared base
	// (docs/BATCHING.md); the zero value keeps per-request execution.
	Batch sched.BatchPolicy
	// WireCodec compresses outbound activation/gradient payloads for
	// clients that negotiated FeatureActivationCompression
	// (docs/WIRE.md). The zero value (fp32) disables the feature:
	// frames stay byte-identical to a pre-compression server.
	WireCodec quant.Codec
	// Logger receives server events; nil silences them.
	Logger *log.Logger
	// Metrics, when set, instruments the server's scheduler, GPU and
	// serving loop against the registry (serve it with obs.Handler).
	Metrics *obs.Registry
	// Tracer, when set, records per-request spans (admission, grant
	// waits, compute segments) on the wall clock. Server spans carry
	// the trace IDs negotiated with tracing clients, so a client trace
	// and this server's trace merge into one timeline
	// (obs.WriteMergedChromeTrace).
	Tracer *obs.Tracer
	// Flight, when set, snapshots the recent trace window and metrics
	// to disk on shed, OOM-rejection and admission-state transitions.
	Flight *obs.FlightRecorder
	// ServerID is the server's fleet identity, echoed by /loadz.
	ServerID int
	// TenantCap bounds per-client accounting cardinality (0 =
	// obs.DefaultVecCap); tenants past it aggregate into "other".
	TenantCap int
}

// Deployment is a running Menos server bound to a listener.
type Deployment struct {
	Store  *share.Store
	Server *server.Server

	mu       sync.Mutex
	listener net.Listener
	serveErr chan error
}

// NewDeployment builds the shared store and server (the model is
// "preloaded" at this point) without binding a listener yet.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.WeightSeed == 0 {
		cfg.WeightSeed = 1
	}
	if cfg.GPU.MemoryBytes == 0 {
		cfg.GPU = gpu.V100()
	}
	rng := tensor.NewRNG(cfg.WeightSeed)
	if cfg.WeightsFile != "" {
		rng = nil // the file supplies every weight: build the structure only
	}
	m, err := model.New(rng, cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("core: build model: %w", err)
	}
	if cfg.WeightsFile != "" {
		if err := checkpoint.LoadModelFile(cfg.WeightsFile, m); err != nil {
			return nil, fmt.Errorf("core: load weights: %w", err)
		}
	}
	store, err := share.NewStoreFromModel(m)
	if err != nil {
		return nil, fmt.Errorf("core: build store: %w", err)
	}
	srv, err := server.New(server.Config{
		Store:     store,
		GPU:       gpu.NewDevice(cfg.GPU, cfg.Metrics),
		SLO:       cfg.SLO,
		Batch:     cfg.Batch,
		WireCodec: cfg.WireCodec,
		Logger:    cfg.Logger,
		Metrics:   cfg.Metrics,
		Tracer:    cfg.Tracer,
		Flight:    cfg.Flight,
		ServerID:  cfg.ServerID,
		TenantCap: cfg.TenantCap,
	})
	if err != nil {
		return nil, fmt.Errorf("core: build server: %w", err)
	}
	return &Deployment{Store: store, Server: srv, serveErr: make(chan error, 1)}, nil
}

// Listen binds addr ("host:port"; ":0" for ephemeral) and starts
// serving in the background. It returns the bound address.
func (d *Deployment) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("core: listen %s: %w", addr, err)
	}
	d.mu.Lock()
	d.listener = l
	d.mu.Unlock()
	go func() { d.serveErr <- d.Server.Serve(l) }()
	return l.Addr().String(), nil
}

// Wait blocks until the serve loop exits, returning its error (nil for
// a clean Close).
func (d *Deployment) Wait() error {
	err := <-d.serveErr
	if errors.Is(err, server.ErrServerClosed) {
		return nil
	}
	return err
}

// Close shuts the deployment down.
func (d *Deployment) Close() error {
	return d.Server.Close()
}

// Addr returns the bound address, or "" before Listen.
func (d *Deployment) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.listener == nil {
		return ""
	}
	return d.listener.Addr().String()
}
