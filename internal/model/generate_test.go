package model

import (
	"math"
	"testing"

	"menos/internal/tensor"
)

func generateModel(t *testing.T) *Transformer {
	t.Helper()
	m, err := New(tensor.NewRNG(21), tinyCfg(FamilyLlama))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateBasics(t *testing.T) {
	m := generateModel(t)
	out, err := m.Generate(tensor.NewRNG(1), []int{1, 2, 3}, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("generated %d tokens, want 8", len(out))
	}
	// Prompt preserved.
	for i, want := range []int{1, 2, 3} {
		if out[i] != want {
			t.Fatalf("prompt token %d changed", i)
		}
	}
	// All tokens in vocab.
	for _, id := range out {
		if id < 0 || id >= m.Cfg.Vocab {
			t.Fatalf("token %d out of vocab", id)
		}
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	m := generateModel(t)
	a, err := m.Generate(tensor.NewRNG(1), []int{4, 5}, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(tensor.NewRNG(999), []int{4, 5}, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy ignores the RNG entirely.
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy generation not deterministic")
		}
	}
}

func TestGenerateSamplingSeeded(t *testing.T) {
	m := generateModel(t)
	a, err := m.Generate(tensor.NewRNG(7), []int{4, 5}, 8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(tensor.NewRNG(7), []int{4, 5}, 8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed sampling diverged")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	m := generateModel(t)
	if _, err := m.Generate(tensor.NewRNG(1), nil, 3, 1); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, err := m.Generate(tensor.NewRNG(1), []int{99}, 3, 1); err == nil {
		t.Fatal("out-of-vocab prompt accepted")
	}
	if _, err := m.Generate(tensor.NewRNG(1), []int{1}, 3, -1); err == nil {
		t.Fatal("negative temperature accepted")
	}
	if _, err := m.Generate(tensor.NewRNG(1), []int{1}, -1, 0); err == nil {
		t.Fatal("negative token budget accepted")
	}
}

func TestGenerateWindowsLongPrompts(t *testing.T) {
	m := generateModel(t)
	// Prompt longer than MaxSeq must still work via windowing.
	prompt := make([]int, m.Cfg.MaxSeq+10)
	for i := range prompt {
		prompt[i] = i % m.Cfg.Vocab
	}
	out, err := m.Generate(tensor.NewRNG(2), prompt, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(prompt)+3 {
		t.Fatalf("generated %d tokens", len(out))
	}
}

func TestPerplexityEvaluation(t *testing.T) {
	m := generateModel(t)
	tokens := make([]int, 100)
	r := tensor.NewRNG(3)
	for i := range tokens {
		tokens[i] = r.Intn(m.Cfg.Vocab)
	}
	ppl, err := m.Perplexity(tokens, 10)
	if err != nil {
		t.Fatal(err)
	}
	// An untrained model on random tokens should be near uniform:
	// perplexity ~ vocab size.
	if ppl < 2 || ppl > float64(m.Cfg.Vocab)*4 {
		t.Fatalf("perplexity %v implausible for vocab %d", ppl, m.Cfg.Vocab)
	}
	if _, err := m.Perplexity(tokens[:5], 10); err == nil {
		t.Fatal("short stream accepted")
	}
	if _, err := m.Perplexity(tokens, 1); err == nil {
		t.Fatal("window 1 accepted")
	}
}

// splitDecoder decodes one token at a time the way a split deployment
// does (client.GenerateIncremental against the server's decode
// session): the client's InputSection.DecodeStep over its own
// DecodeState, the server's BodySection.DecodeStep over the body's,
// then the client's output section.
type splitDecoder struct {
	input     *InputSection
	body      *BodySection
	output    *OutputSection
	in, state *DecodeState // the input section's and the body's
}

func newSplitDecoder(t *testing.T, m *Transformer, capacity int) *splitDecoder {
	t.Helper()
	input, body, output, err := m.Split(DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	in, err := input.NewDecodeState(capacity)
	if err != nil {
		t.Fatal(err)
	}
	state, err := body.NewDecodeState(capacity, m.Cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	return &splitDecoder{input: input, body: body, output: output, in: in, state: state}
}

// step feeds tokenID at the next position and returns the (1, vocab)
// next-token logits.
func (d *splitDecoder) step(tokenID int) (*tensor.Tensor, error) {
	x, err := d.input.DecodeStep(tokenID, d.in)
	if err != nil {
		return nil, err
	}
	if x, err = d.body.DecodeStep(x, d.state); err != nil {
		return nil, err
	}
	logits, _, err := d.output.Forward(x, false)
	return logits, err
}

// fullLogits runs tokens through input → body → output in one pass:
// the reference every decoded position must match.
func fullLogits(t *testing.T, m *Transformer, tokens []int) *tensor.Tensor {
	t.Helper()
	input, body, output, err := m.Split(DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	xc, _, err := input.Forward(tokens, 1, len(tokens), false)
	if err != nil {
		t.Fatal(err)
	}
	xs, _, err := body.Forward(xc, 1, len(tokens), false)
	if err != nil {
		t.Fatal(err)
	}
	logits, _, err := output.Forward(xs, false)
	if err != nil {
		t.Fatal(err)
	}
	return logits
}

// expectDecodeMatchesFull decodes tokens one at a time and compares
// every stride-th logit of every position with the full pass.
func expectDecodeMatchesFull(t *testing.T, m *Transformer, tokens []int, stride int) *splitDecoder {
	t.Helper()
	full := fullLogits(t, m, tokens)
	d := newSplitDecoder(t, m, len(tokens))
	for p, id := range tokens {
		step, err := d.step(id)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < m.Cfg.Vocab; c += stride {
			if diff := math.Abs(float64(step.At(0, c) - full.At(p, c))); diff > 2e-4 {
				t.Fatalf("position %d vocab %d: decode %v vs full %v", p, c, step.At(0, c), full.At(p, c))
			}
		}
	}
	return d
}

// TestDecodeMatchesFullForward is the KV-cache correctness proof: the
// logits from incremental split decoding must match a full forward
// pass at every position, for both families.
func TestDecodeMatchesFullForward(t *testing.T) {
	for _, family := range []Family{FamilyOPT, FamilyLlama} {
		t.Run(family.String(), func(t *testing.T) {
			m, err := New(tensor.NewRNG(31), tinyCfg(family))
			if err != nil {
				t.Fatal(err)
			}
			tokens := []int{3, 1, 4, 1, 5, 9, 2, 6}
			d := expectDecodeMatchesFull(t, m, tokens, 1)
			if d.state.Len() != len(tokens) {
				t.Fatalf("state length %d", d.state.Len())
			}
			if d.state.Bytes() <= 0 {
				t.Fatal("no cache bytes accounted")
			}
		})
	}
}

// TestSplitDecodeMatchesGenerate: greedy decoding through the KV
// caches of the split path produces exactly Generate's tokens.
func TestSplitDecodeMatchesGenerate(t *testing.T) {
	m := generateModel(t)
	prompt := []int{4, 7, 1}
	const maxNew = 10
	slow, err := m.Generate(tensor.NewRNG(1), prompt, maxNew, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := newSplitDecoder(t, m, len(prompt)+maxNew)
	fast := append([]int(nil), prompt...)
	var logits *tensor.Tensor
	for _, id := range prompt {
		if logits, err = d.step(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxNew; i++ {
		next := SampleToken(tensor.NewRNG(1), logits.Row(0), 0)
		fast = append(fast, next)
		if logits, err = d.step(next); err != nil {
			t.Fatal(err)
		}
	}
	if len(slow) != len(fast) {
		t.Fatalf("lengths differ: %d vs %d", len(slow), len(fast))
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("token %d: Generate %d vs split decode %d (%v vs %v)", i, slow[i], fast[i], slow, fast)
		}
	}
}

// TestDecodeWithPrefixAdapter: prefix slots participate in incremental
// attention exactly as in the batch path, on the body the server
// decodes as well as the client's input block.
func TestDecodeWithPrefixAdapter(t *testing.T) {
	m, err := New(tensor.NewRNG(33), tinyCfg(FamilyLlama))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range m.Blocks {
		b.Attn.Prefix = NewPrefixKV(tensor.NewRNG(34), 3, m.Cfg.Dim)
	}
	expectDecodeMatchesFull(t, m, []int{2, 5, 8, 1}, 3)
}

// TestDecodeStateValidation: the body's decode state refuses a zero
// capacity, a step past its capacity and a state built for a different
// body; the client side refuses an out-of-vocab token.
func TestDecodeStateValidation(t *testing.T) {
	m := generateModel(t)
	_, body, _, err := m.Split(DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := body.NewDecodeState(0, m.Cfg.Dim); err == nil {
		t.Fatal("zero capacity accepted")
	}
	d := newSplitDecoder(t, m, 2)
	if _, err := d.step(999); err == nil {
		t.Fatal("out-of-vocab token accepted")
	}
	d = newSplitDecoder(t, m, 2)
	for i := 0; i < 2; i++ {
		if _, err := d.step(1); err != nil {
			t.Fatal(err)
		}
	}
	// The client sizes its own caches; the body refuses a third position.
	if _, err := body.DecodeStep(tensor.New(1, m.Cfg.Dim), d.state); err == nil {
		t.Fatal("overfull state accepted")
	}
	if d.state.Capacity() != 2 || d.state.Len() != 2 {
		t.Fatalf("state capacity %d length %d, want 2 and 2", d.state.Capacity(), d.state.Len())
	}
	// A state sized for another cut's body.
	_, other, _, err := m.Split(DefaultCut + 1)
	if err != nil {
		t.Fatal(err)
	}
	otherState, err := other.NewDecodeState(2, m.Cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := body.DecodeStep(tensor.New(1, m.Cfg.Dim), otherState); err == nil {
		t.Fatal("foreign state accepted")
	}
}
