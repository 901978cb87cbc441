package model

import (
	"sync/atomic"

	"menos/internal/nn"
	"menos/internal/tensor"
)

// embedStd is the standard deviation of the token and position
// embeddings, the conventional transformer initialization.
const embedStd = 0.02

// normalSampleWork is what one N(0, std²) sample costs in the fan-out
// rule's unit, a tile multiply-add (tensor.ParallelFor): a Box-Muller
// sample — two xorshift draws, a Log, a Sqrt and a Cos — takes ≈ 49 ns
// against ≈ 0.040 ns a multiply-add, both measured on the 2-vCPU
// benchmark box (docs/PERFORMANCE.md, "Set-up: a tenant builds what it
// holds").
const normalSampleWork = 1200

// initWalk is the one construction walk behind New and NewSections. It
// takes every parameter's stream with rng.Split() in the order the
// model has always drawn them — token embedding, LM head, positions,
// then each block's Q, K, V, O, Up, Down (and Llama's Gate) — so a held
// parameter sees the same stream however many blocks are held. While
// skip is set, a layer takes its stream and allocates nothing. A kept
// parameter's samples are not drawn on the walk: it records the
// tensor, its stream and its std, and fill draws them all at the end.
type initWalk struct {
	rng   *tensor.RNG // nil: build the structure only, with zero weights
	skip  bool
	fills []initFill
}

// initFill is one kept parameter waiting for its N(0, std²) samples.
type initFill struct {
	t   *tensor.Tensor
	rng *tensor.RNG
	std float64
}

// normal takes the next parameter's stream and, unless the walk skips
// the layer, allocates the tensor that fill will draw from it.
func (w *initWalk) normal(std float64, shape ...int) *tensor.Tensor {
	var r *tensor.RNG
	if w.rng != nil {
		r = w.rng.Split()
	}
	if w.skip {
		return nil
	}
	t := tensor.New(shape...)
	if r != nil {
		w.fills = append(w.fills, initFill{t: t, rng: r, std: std})
	}
	return t
}

// linear is a Xavier-initialized (in, out) projection with an optional
// zero bias; nil when skipped.
func (w *initWalk) linear(in, out int, bias bool) *nn.Linear {
	t := w.normal(tensor.XavierStd(in, out), in, out)
	if t == nil {
		return nil
	}
	return nn.LinearOf(t, bias)
}

// embedding is a (vocab, dim) lookup table; nil when skipped.
func (w *initWalk) embedding(vocab, dim int) *nn.Embedding {
	t := w.normal(embedStd, vocab, dim)
	if t == nil {
		return nil
	}
	return &nn.Embedding{Table: nn.NewParam("table", t)}
}

// fill draws every recorded tensor from its own stream. One goroutine
// fills a tensor start to end, so its bits are the same at any
// parallelism. ParallelFor, told the mean tensor's samples as the work
// of an item, decides how many goroutines the whole fill is worth;
// each of them claims the next unfilled tensor until none is left, so
// one large tensor does not hold back a chunk of small ones.
func (w *initWalk) fill() {
	n := len(w.fills)
	if n == 0 {
		return
	}
	samples := 0
	for _, f := range w.fills {
		samples += f.t.Len()
	}
	var next atomic.Int64
	tensor.ParallelFor(n, samples/n*normalSampleWork, func(_, _ int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f := w.fills[i]
			f.t.FillNormal(f.rng, f.std)
		}
	})
}

// build walks cfg, holding blocks [0, held), and fills what it kept.
// Validation comes first, so a bad configuration draws nothing.
func build(rng *tensor.RNG, cfg Config, held int) (*Transformer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &initWalk{rng: rng}
	t := &Transformer{
		Cfg:    cfg,
		Embed:  w.embedding(cfg.Vocab, cfg.Dim),
		LMHead: w.linear(cfg.Dim, cfg.Vocab, false),
	}
	if cfg.Family == FamilyOPT {
		t.Pos = w.embedding(cfg.MaxSeq, cfg.Dim)
		t.Norm = nn.NewLayerNorm(cfg.Dim)
	} else {
		t.Norm = nn.NewRMSNorm(cfg.Dim)
	}
	t.scratch = tensor.NewScratch()
	t.Blocks = make([]*Block, held)
	for i := range cfg.Layers {
		w.skip = i >= held
		if b := newBlock(w, cfg); b != nil {
			b.setScratch(t.scratch)
			t.Blocks[i] = b
		}
	}
	setOpScratch(t.scratch, t.Norm, t.LMHead)
	t.Embed.SetScratch(t.scratch)
	if t.Pos != nil {
		t.Pos.SetScratch(t.scratch)
	}
	w.fill()
	return t, nil
}
