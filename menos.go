// Package menos is the public API of the Menos reproduction: a
// memory-efficient split fine-tuning framework for large language
// models, after Hu & Li, "Menos: Split Fine-Tuning Large Language
// Models with Efficient GPU Memory Sharing" (MIDDLEWARE 2024).
//
// The framework has two planes that share one scheduler and one
// sharing mechanism:
//
//   - A functional plane that really fine-tunes (tiny) transformer
//     models over TCP: the server shares a single base-model copy
//     across clients (§3.1) and allocates memory on demand under the
//     Algorithm-2 scheduler; clients hold the input/output sections
//     and their private data.
//   - A performance plane that simulates full-size workloads
//     (OPT-1.3B, Llama 2-7B) on modeled V100s over a modeled WAN,
//     regenerating the paper's tables and figures deterministically.
//
// Quick start — serve a model and fine-tune against it:
//
//	dep, err := menos.NewDeployment(menos.DeploymentConfig{
//		Model:      menos.OPTTiny(),
//		WeightSeed: 42,
//	})
//	addr, err := dep.Listen("127.0.0.1:0")
//	c, err := menos.Dial(addr, menos.ClientConfig{
//		ClientID:   "alice",
//		Model:      menos.OPTTiny(),
//		WeightSeed: 42,
//		Adapter:    menos.DefaultLoRA(),
//		Batch:      4, Seq: 32,
//	})
//	res, err := c.Step(ids, targets) // one split fine-tuning iteration
package menos

import (
	"menos/internal/adapter"
	"menos/internal/checkpoint"
	"menos/internal/client"
	"menos/internal/core"
	"menos/internal/experiments"
	"menos/internal/gpu"
	"menos/internal/memmodel"
	"menos/internal/model"
	"menos/internal/quant"
	"menos/internal/sched"
	"menos/internal/splitsim"
)

// Model configuration.
type (
	// ModelConfig describes a decoder-only transformer.
	ModelConfig = model.Config
	// Family selects OPT-style or Llama-style architecture.
	Family = model.Family
)

// Architecture families.
const (
	FamilyOPT   = model.FamilyOPT
	FamilyLlama = model.FamilyLlama
)

// Model presets.
var (
	// OPT1_3B and Llama2_7B are the paper's evaluation shapes: use
	// them with the memory model and simulation, not for training.
	OPT1_3B   = model.OPT1_3B
	Llama2_7B = model.Llama2_7B
	// OPTTiny and LlamaTiny are CPU-trainable configurations.
	OPTTiny   = model.OPTTiny
	LlamaTiny = model.LlamaTiny
	// ModelByName resolves a preset by name.
	ModelByName = model.ConfigByName
)

// Adapters.
type (
	// AdapterSpec is a serializable fine-tuning adapter description.
	AdapterSpec = adapter.Spec
	// AdapterKind selects LoRA or prefix-tuning, the paper's two kinds.
	AdapterKind = adapter.Kind
)

// Adapter kinds.
const (
	AdapterLoRA   = adapter.KindLoRA
	AdapterPrefix = adapter.KindPrefix
)

// DefaultLoRA returns the paper's LoRA configuration (r=8, α=16, on
// the query and value projections).
func DefaultLoRA() AdapterSpec { return adapter.LoRASpec(adapter.DefaultLoRA()) }

// DefaultPrefix returns an 8-slot prefix-tuning configuration.
func DefaultPrefix() AdapterSpec { return adapter.PrefixSpec(adapter.DefaultPrefix()) }

// Deployment: the server side.
type (
	// DeploymentConfig configures a Menos server deployment.
	DeploymentConfig = core.DeploymentConfig
	// Deployment is a running Menos server with its shared store.
	Deployment = core.Deployment
)

// NewDeployment builds a Menos server (shared base model preloaded).
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	return core.NewDeployment(cfg)
}

// GPU presets for deployments and simulations.
var (
	V100     = gpu.V100
	A100     = gpu.A100
	RTXA4500 = gpu.RTXA4500
)

// Scheduler disciplines.
const (
	SchedFCFSBackfill  = sched.PolicyFCFSBackfill
	SchedFCFS          = sched.PolicyFCFS
	SchedSmallestFirst = sched.PolicySmallestFirst
)

// Clients.
type (
	// ClientConfig describes one split fine-tuning client.
	ClientConfig = client.Config
	// Client is a connected split fine-tuning client.
	Client = client.Client
	// StepResult reports one fine-tuning iteration.
	StepResult = client.StepResult
)

// Dial connects a client to a Menos server.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	return client.Dial(addr, cfg)
}

// Memory model (§2.3 accounting).
type (
	// Workload describes a client's fine-tuning configuration for the
	// analytic memory model.
	Workload = memmodel.Workload
	// Footprint is the M/A/O/I decomposition.
	Footprint = memmodel.Footprint
)

// Paper evaluation workloads.
var (
	PaperOPTWorkload   = memmodel.PaperOPTWorkload
	PaperLlamaWorkload = memmodel.PaperLlamaWorkload
)

// Persistent-memory estimators (Fig. 5).
var (
	VanillaPersistentBytes = memmodel.VanillaPersistentBytes
	MenosPersistentBytes   = memmodel.MenosPersistentBytes
)

// Simulation (performance plane).
type (
	// SimConfig configures a discrete-event split fine-tuning run.
	SimConfig = splitsim.Config
	// SimResult aggregates a simulation run.
	SimResult = splitsim.Result
	// SimMode selects Menos or the vanilla baseline.
	SimMode = splitsim.Mode
	// MemPolicy selects a Fig. 3 memory policy.
	MemPolicy = splitsim.MemPolicy
)

// Simulation modes and policies.
const (
	SimMenos   = splitsim.ModeMenos
	SimVanilla = splitsim.ModeVanilla

	PolicyOnDemand      = splitsim.PolicyOnDemand
	PolicyReleaseOnWait = splitsim.PolicyReleaseOnWait
	PolicyPreserve      = splitsim.PolicyPreserve
	PolicyPersistAll    = splitsim.PolicyPersistAll
)

// Simulate runs one performance-plane configuration.
func Simulate(cfg SimConfig) (*SimResult, error) { return splitsim.Run(cfg) }

// Experiments: paper artifacts.
type (
	// ExperimentOptions sizes experiment runs.
	ExperimentOptions = experiments.Options
	// Table is an aligned text table.
	Table = experiments.Table
	// Figure is a set of series over one x axis.
	Figure = experiments.Figure
)

// Experiment entry points, one per paper artifact.
var (
	MeasurementStudy = experiments.MeasurementStudy
	Fig3             = experiments.Fig3
	Fig5             = experiments.Fig5
	Fig6             = experiments.Fig6
	Fig7             = experiments.Fig7
	Fig8             = experiments.Fig8
	Fig9             = experiments.Fig9
	Fig10            = experiments.Fig10
	Table1           = experiments.Table1
	Table2           = experiments.Table2
	Table3           = experiments.Table3
	NewSweep         = experiments.NewSweep

	// Extension experiments beyond the paper's own figures.
	ExtensionQuantization         = experiments.ExtensionQuantization
	ExtensionMultiServer          = experiments.ExtensionMultiServer
	ExtensionHeterogeneousClients = experiments.ExtensionHeterogeneousClients
)

// Quantization (QLoRA-style, orthogonal to Menos per §5.2): priced
// by the memory model (Workload.BaseQuant), not served — the TCP
// plane's base is fp32.
type (
	// QuantPrecision selects the int8 or int4 base-weight width the
	// memory model prices.
	QuantPrecision = quant.Precision
)

// Quantization precisions.
const (
	QuantInt8 = quant.Int8
	QuantInt4 = quant.Int4
)

// Checkpointing: adapter parameters can be saved and restored without
// ever touching the shared base model.
var (
	SaveParams = checkpoint.Save
	LoadParams = checkpoint.Load
)
