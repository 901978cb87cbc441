package experiments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/data"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/server"
	"menos/internal/share"
	"menos/internal/tensor"
)

// ConvergenceResult reports a real (functional-plane) fine-tuning run:
// perplexity trajectories for every split client plus the local
// single-device baseline.
type ConvergenceResult struct {
	Fig *Figure
	// Clients holds each split client's per-step perplexities.
	Clients [][]float64
	// Local holds the single-device baseline's per-step perplexities,
	// trained on client 1's data with client 1's seeds.
	Local []float64
	// ClientStepSeconds is each split client's mean wall time per
	// step; LocalStepSeconds is the baseline's. The paper's Fig. 8/9
	// show split runs "taking longer due to cross-internet
	// communication" while converging identically — this captures the
	// time axis.
	ClientStepSeconds []float64
	LocalStepSeconds  float64
}

// FinalGap returns |client-1 final ppl − local final ppl|; the paper's
// claim is that this is zero (split fine-tuning is mathematically
// identical to local fine-tuning).
func (r *ConvergenceResult) FinalGap() float64 {
	if len(r.Clients) == 0 || len(r.Local) == 0 {
		return 0
	}
	c := r.Clients[0][len(r.Clients[0])-1]
	l := r.Local[len(r.Local)-1]
	if c > l {
		return c - l
	}
	return l - c
}

// convergeConfig describes one convergence experiment.
type convergeConfig struct {
	title   string
	model   model.Config
	tokens  []int
	clients int
	batch   int
	seq     int
	lr      float64
}

// Fig8 reproduces "Convergence of OPT": several clients split
// fine-tuning the OPT-flavoured model on a wikitext-style corpus,
// against local fine-tuning. The models are tiny (CPU-trainable) but
// the training is real.
func Fig8(opts Options) (*ConvergenceResult, error) {
	opts = opts.withDefaults()
	corpus := data.SyntheticWikitext(opts.Seed, 3000)
	cfg := model.OPTTiny()
	tok, err := data.NewWordTokenizer(corpus, cfg.Vocab)
	if err != nil {
		return nil, fmt.Errorf("fig8 tokenizer: %w", err)
	}
	tokens, err := tok.Encode(corpus)
	if err != nil {
		return nil, fmt.Errorf("fig8 encode: %w", err)
	}
	return converge(convergeConfig{
		title:   "Fig. 8: convergence of OPT (perplexity vs step)",
		model:   cfg,
		tokens:  tokens,
		clients: 3,
		batch:   4,
		seq:     32,
		lr:      8e-3,
	}, opts)
}

// Fig9 reproduces "Convergence of Llama 2", using the
// tiny-shakespeare-style corpus with character-level tokens.
func Fig9(opts Options) (*ConvergenceResult, error) {
	opts = opts.withDefaults()
	cfg := model.LlamaTiny()
	tok, err := data.NewCharTokenizer(data.Shakespeare(), cfg.Vocab)
	if err != nil {
		return nil, fmt.Errorf("fig9 tokenizer: %w", err)
	}
	tokens, err := tok.Encode(data.Shakespeare())
	if err != nil {
		return nil, fmt.Errorf("fig9 encode: %w", err)
	}
	return converge(convergeConfig{
		title:   "Fig. 9: convergence of Llama 2 (perplexity vs step)",
		model:   cfg,
		tokens:  tokens,
		clients: 3,
		batch:   4,
		seq:     32,
		lr:      8e-3,
	}, opts)
}

// converge runs the experiment: a real Menos server over TCP, N
// concurrent clients on disjoint data shards, and the local baseline.
func converge(cc convergeConfig, opts Options) (*ConvergenceResult, error) {
	weightSeed := opts.Seed*7919 + 13
	adapterSeed := func(i int) uint64 { return opts.Seed*104729 + uint64(i) }
	loaderSeed := func(i int) uint64 { return opts.Seed*1299709 + uint64(i) }

	store, err := share.NewStore(tensor.NewRNG(weightSeed), cc.model)
	if err != nil {
		return nil, fmt.Errorf("converge store: %w", err)
	}
	srv, err := server.New(server.Config{Store: store})
	if err != nil {
		return nil, fmt.Errorf("converge server: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("converge listen: %w", err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = srv.Close() }()

	shards, err := data.Partition(cc.tokens, cc.clients)
	if err != nil {
		return nil, fmt.Errorf("converge shards: %w", err)
	}

	clientPPL := make([][]float64, cc.clients)
	clientStepSecs := make([]float64, cc.clients)
	var wg sync.WaitGroup
	errs := make(chan error, cc.clients)
	for i := 0; i < cc.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ccfg := client.Config{
				ClientID:    fmt.Sprintf("client-%d", i+1),
				Model:       cc.model,
				WeightSeed:  weightSeed,
				Cut:         model.DefaultCut,
				Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
				AdapterSeed: adapterSeed(i),
				LR:          cc.lr,
				Batch:       cc.batch,
				Seq:         cc.seq,
			}
			c, err := client.Dial(l.Addr().String(), ccfg)
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", i, err)
				return
			}
			defer c.Close()
			loader, err := data.NewLoader(shards[i], cc.batch, cc.seq, loaderSeed(i))
			if err != nil {
				errs <- fmt.Errorf("client %d loader: %w", i, err)
				return
			}
			ppl := make([]float64, 0, opts.Steps)
			start := time.Now()
			for step := 0; step < opts.Steps; step++ {
				ids, targets := loader.Next()
				res, err := c.Step(ids, targets)
				if err != nil {
					errs <- fmt.Errorf("client %d step %d: %w", i, step, err)
					return
				}
				ppl = append(ppl, res.Perplexity)
			}
			clientPPL[i] = ppl
			clientStepSecs[i] = time.Since(start).Seconds() / float64(opts.Steps)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	localStart := time.Now()
	local, err := localRun(cc, weightSeed, adapterSeed(0), loaderSeed(0), shards[0], opts.Steps)
	if err != nil {
		return nil, err
	}
	localStepSecs := time.Since(localStart).Seconds() / float64(opts.Steps)

	if err := store.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("converge: shared base modified: %w", err)
	}

	fig := NewFigure(cc.title, "step")
	for i, ppl := range clientPPL {
		s := fig.NewSeries(fmt.Sprintf("client-%d", i+1))
		for step, p := range ppl {
			s.Add(float64(step), p)
		}
	}
	ls := fig.NewSeries("local")
	for step, p := range local {
		ls.Add(float64(step), p)
	}
	return &ConvergenceResult{
		Fig:               fig,
		Clients:           clientPPL,
		Local:             local,
		ClientStepSeconds: clientStepSecs,
		LocalStepSeconds:  localStepSecs,
	}, nil
}

// localRun is the single-device baseline: the same model, seeds, data
// and optimizer as split client 1, fine-tuned without any server.
func localRun(cc convergeConfig, weightSeed, adapterSeed, loaderSeed uint64, shard []int, steps int) ([]float64, error) {
	m, err := model.New(tensor.NewRNG(weightSeed), cc.model)
	if err != nil {
		return nil, fmt.Errorf("local model: %w", err)
	}
	m.SetFrozenBase(true)
	spec := adapter.LoRASpec(adapter.DefaultLoRA())
	// Match the split run's adapter placement and seeding exactly:
	// client-side blocks use the salted stream, server-side blocks the
	// plain stream (see client.New and server.handshake).
	adClient, err := spec.Inject(tensor.NewRNG(adapterSeed^client.AdapterSalt), m.Blocks[:model.DefaultCut], cc.model.Dim)
	if err != nil {
		return nil, fmt.Errorf("local client adapter: %w", err)
	}
	adServer, err := spec.Inject(tensor.NewRNG(adapterSeed), m.Blocks[model.DefaultCut:], cc.model.Dim)
	if err != nil {
		return nil, fmt.Errorf("local server adapter: %w", err)
	}
	optC := nn.NewAdam(cc.lr)
	optS := nn.NewAdam(cc.lr)

	loader, err := data.NewLoader(shard, cc.batch, cc.seq, loaderSeed)
	if err != nil {
		return nil, fmt.Errorf("local loader: %w", err)
	}
	ppl := make([]float64, 0, steps)
	for step := 0; step < steps; step++ {
		ids, targets := loader.Next()
		res, err := m.LossAndGrad(ids, targets, cc.batch, cc.seq)
		if err != nil {
			return nil, fmt.Errorf("local step %d: %w", step, err)
		}
		ppl = append(ppl, nn.Perplexity(res.Loss))
		if err := optC.Step(adClient.Params()); err != nil {
			return nil, err
		}
		if err := optS.Step(adServer.Params()); err != nil {
			return nil, err
		}
		nn.ZeroGrads(adClient.Params())
		nn.ZeroGrads(adServer.Params())
	}
	return ppl, nil
}
