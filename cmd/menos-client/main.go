// Command menos-client fine-tunes a model against a Menos server over
// TCP, using the embedded Shakespeare corpus (char-level) or the
// synthetic wikitext corpus (word-level) as private local data.
//
// Usage:
//
//	menos-client [-addr localhost:7600] [-id alice] [-model opt-tiny]
//	             [-seed 42] [-weights base.ckpt] [-adapter lora] [-dataset shakespeare]
//	             [-steps 100] [-batch 4] [-seq 32] [-lr 0.008]
//	             [-max-retries 8] [-wire-compress off|fp16|int8]
//	             [-metrics-addr :9091]
//
// -weights loads the base weights from the checkpoint file the model
// owner distributes (menos-server -export-weights writes one) instead
// of deriving them from -seed; it must be the file the server serves
// with its own -weights.
//
// -wire-compress quantizes the activation/gradient uploads this client
// sends to a server that negotiated the compression capability (fp16
// halves, int8 quarters the payload bytes; docs/WIRE.md). Against a
// legacy server the client transparently falls back to plain fp32.
//
// When the server sheds load (admission control, docs/ADMISSION.md)
// the client backs off for the server's retry-after hint and resubmits
// the same step, up to -max-retries times per step.
//
// With -metrics-addr set, the client serves its own telemetry — the
// menos_client_* iteration counters and comm/comp histograms, plus a
// Chrome trace of recent step spans — on /metrics, /metrics.json and
// /trace, the same endpoint surface as the server
// (docs/OBSERVABILITY.md).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/data"
	"menos/internal/fleet"
	"menos/internal/memmodel"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/quant"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "menos-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("menos-client", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:7600", "server address")
	id := fs.String("id", "client-1", "client id (unique per server, and across the fleet under -fleetd)")
	modelName := fs.String("model", "opt-tiny", "base model served by the server")
	seed := fs.Uint64("seed", 42, "model owner's weight seed (must match server)")
	weights := fs.String("weights", "", "load base weights from a checkpoint file instead of the seed (the file menos-server -weights serves)")
	adapterKind := fs.String("adapter", "lora", "adapter: lora, prefix, bottleneck")
	dataset := fs.String("dataset", "shakespeare", "dataset: shakespeare, wikitext")
	steps := fs.Int("steps", 100, "fine-tuning steps")
	batch := fs.Int("batch", 4, "batch size")
	seq := fs.Int("seq", 32, "sequence length")
	lr := fs.Float64("lr", 8e-3, "learning rate")
	dataSeed := fs.Uint64("data-seed", 7, "batch sampling seed")
	maxRetries := fs.Int("max-retries", 8, "retries per step when the server sheds load (0 fails fast)")
	wireCompress := fs.String("wire-compress", "off", "compress uploaded activation payloads when the server negotiates it: off, fp16 or int8 (docs/WIRE.md)")
	migrate := fs.Bool("migrate", false, "offer live migration: follow server-issued redirects mid-run (docs/FLEET.md)")
	fleetd := fs.String("fleetd", "", "ask this menos-fleetd control plane (http://host:port) where to connect instead of -addr")
	finalLossOut := fs.String("final-loss-out", "", "write the final step's loss to this file as float64 bits in hex (determinism pin for e2e)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics, /metrics.json and /trace on this address (e.g. :9091)")
	pprofFlag := fs.Bool("pprof", false, "mount /debug/pprof/ on the metrics mux (with -metrics-addr)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := model.ConfigByName(*modelName)
	if err != nil {
		return err
	}
	wireCodec, err := quant.ParseCodec(*wireCompress)
	if err != nil {
		return fmt.Errorf("-wire-compress: %w", err)
	}
	var spec adapter.Spec
	switch *adapterKind {
	case "lora":
		spec = adapter.LoRASpec(adapter.DefaultLoRA())
	case "prefix":
		spec = adapter.PrefixSpec(adapter.DefaultPrefix())
	case "bottleneck":
		spec = adapter.BottleneckSpec(adapter.DefaultBottleneck())
	default:
		return fmt.Errorf("unknown adapter %q", *adapterKind)
	}

	tokens, err := loadTokens(*dataset, cfg.Vocab, *dataSeed)
	if err != nil {
		return err
	}
	loader, err := data.NewLoader(tokens, *batch, *seq, *dataSeed)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(obs.NewWallClock())
		// Ring capture: long runs keep the freshest spans under a byte
		// budget instead of going quiet once the buffer fills.
		tracer.EnableRing(obs.DefaultRingBytes)
		tracer.SetProcess(2, "menos-client:"+*id)
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ml.Close()
		var opts []obs.HandlerOption
		if *pprofFlag {
			opts = append(opts, obs.WithPprof())
		}
		go func() { _ = http.Serve(ml, obs.Handler(reg, tracer, opts...)) }()
		fmt.Printf("menos-client %s: telemetry on http://%s/metrics\n", *id, ml.Addr())
	}

	dialAddr := *addr
	if *fleetd != "" {
		placed, err := placeViaFleetd(*fleetd, placement(*id, cfg, spec, *batch, *seq))
		if err != nil {
			return fmt.Errorf("fleetd placement: %w", err)
		}
		dialAddr = placed
		fmt.Printf("menos-client %s: fleetd placed us on %s\n", *id, dialAddr)
	}
	c, err := client.Dial(dialAddr, client.Config{
		ClientID:    *id,
		Model:       cfg,
		WeightSeed:  *seed,
		WeightsFile: *weights,
		Adapter:     spec,
		AdapterSeed: *dataSeed * 31,
		LR:          *lr,
		Batch:       *batch,
		Seq:         *seq,
		Metrics:     reg,
		Tracer:      tracer,
		WireCodec:   wireCodec,
		Migrate:     *migrate,
		OnMigrate: func(target string) {
			fmt.Printf("menos-client %s: live-migrated to %s\n", *id, target)
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fwd, bwd := c.Demands()
	fmt.Printf("menos-client %s: admitted (server profiled fwd=%d bwd=%d bytes)\n", *id, fwd, bwd)

	var finalLoss float64
	for step := 0; step < *steps; step++ {
		ids, targets := loader.Next()
		res, err := stepWithRetry(c, ids, targets, *maxRetries)
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		finalLoss = res.Loss
		if step%10 == 0 || step == *steps-1 {
			fmt.Printf("step %3d  loss %.4f  ppl %8.2f  comm %v  comp %v\n",
				step, res.Loss, res.Perplexity,
				res.CommTime.Round(1e6), res.CompTime.Round(1e6))
		}
	}
	if n := c.Migrations(); n > 0 {
		fmt.Printf("menos-client %s: finished after %d live migration(s)\n", *id, n)
	}
	if *finalLossOut != "" {
		// Bit-exact pin: hex of the float64 bits, not a rounded decimal,
		// so two runs compare equal iff their losses are identical.
		pin := fmt.Sprintf("%016x\n", math.Float64bits(finalLoss))
		if err := os.WriteFile(*finalLossOut, []byte(pin), 0o644); err != nil {
			return fmt.Errorf("final-loss-out: %w", err)
		}
	}
	return nil
}

// placedEndpoint is the subset of fleet.Endpoint the client needs
// from a fleetd POST /place response.
type placedEndpoint struct {
	Addr string `json:"addr"`
}

// placement is what this client tells fleetd before it connects: its
// identity, base model and memmodel's predicted footprint at the
// default cut, so the placer weighs real demand rather than zero.
func placement(id string, cfg model.Config, spec adapter.Spec, batch, seq int) fleet.ClientInfo {
	w := memmodel.Workload{Model: cfg, Cut: model.DefaultCut, Adapter: spec, Optimizer: memmodel.OptAdam, Batch: batch, Seq: seq}
	return fleet.ClientInfo{
		ID:                 id,
		BaseModel:          cfg.Name,
		PersistentBytes:    w.PersistentClientBytes(),
		TransientPeakBytes: w.BackwardPeakBytes(),
	}
}

// placeViaFleetd asks the control plane for a server (the redirect
// handshake: fleetd picks by policy over live fleet load).
func placeViaFleetd(base string, ci fleet.ClientInfo) (string, error) {
	body, err := json.Marshal(ci)
	if err != nil {
		return "", err
	}
	httpc := &http.Client{Timeout: 10 * time.Second}
	resp, err := httpc.Post(strings.TrimRight(base, "/")+"/place", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var ep placedEndpoint
	if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil {
		return "", err
	}
	if ep.Addr == "" {
		return "", fmt.Errorf("fleetd returned an endpoint with no address")
	}
	return ep.Addr, nil
}

// stepWithRetry runs one step, backing off and resubmitting when the
// server sheds it with a retryable overload rejection. A full step is
// safe to resubmit: the server mutates nothing before the shed.
func stepWithRetry(c *client.Client, ids, targets []int, maxRetries int) (client.StepResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := c.Step(ids, targets)
		if err == nil || !errors.Is(err, client.ErrOverloaded) || attempt >= maxRetries {
			return res, err
		}
		backoff, _ := client.RetryAfter(err)
		if backoff <= 0 {
			backoff = 100 * time.Millisecond
		}
		fmt.Printf("server overloaded, retrying in %v (attempt %d/%d)\n",
			backoff, attempt+1, maxRetries)
		time.Sleep(backoff)
	}
}

func loadTokens(dataset string, vocab int, seed uint64) ([]int, error) {
	switch dataset {
	case "shakespeare":
		tok, err := data.NewCharTokenizer(data.Shakespeare(), vocab)
		if err != nil {
			return nil, err
		}
		return tok.Encode(data.Shakespeare())
	case "wikitext":
		corpus := data.SyntheticWikitext(seed, 3000)
		tok, err := data.NewWordTokenizer(corpus, vocab)
		if err != nil {
			return nil, err
		}
		return tok.Encode(corpus)
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}
