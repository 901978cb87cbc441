package model

import (
	"fmt"

	"menos/internal/tensor"
)

// Generate continues the prompt autoregressively for up to maxNew
// tokens using temperature sampling (temperature 0 means greedy
// argmax). Generation re-runs the full forward each step — no KV cache
// — which is fine at the tiny-model scale this repository trains.
func (t *Transformer) Generate(rng *tensor.RNG, prompt []int, maxNew int, temperature float64) ([]int, error) {
	if err := CheckPrompt(t.Cfg, prompt, maxNew, temperature); err != nil {
		return nil, err
	}
	input, body, output, err := t.Split(DefaultCut)
	if err != nil {
		return nil, err
	}

	seq := append([]int(nil), prompt...)
	for step := 0; step < maxNew; step++ {
		window := seq
		if len(window) > t.Cfg.MaxSeq {
			window = window[len(window)-t.Cfg.MaxSeq:]
		}
		xc, _, err := input.Forward(window, 1, len(window), false)
		if err != nil {
			return nil, fmt.Errorf("generate input: %w", err)
		}
		xs, _, err := body.Forward(xc, 1, len(window), false)
		if err != nil {
			return nil, fmt.Errorf("generate body: %w", err)
		}
		logits, _, err := output.Forward(xs, false)
		if err != nil {
			return nil, fmt.Errorf("generate output: %w", err)
		}
		last := logits.Row(logits.Dim(0) - 1)
		next := SampleToken(rng, last, temperature)
		seq = append(seq, next)
	}
	return seq, nil
}

// CheckPrompt validates a generation request against cfg: a non-empty
// prompt of in-vocabulary tokens, a non-negative token budget and a
// non-negative temperature. Every generator checks here first.
func CheckPrompt(cfg Config, prompt []int, maxNew int, temperature float64) error {
	if len(prompt) == 0 {
		return fmt.Errorf("%w: empty prompt", ErrConfig)
	}
	if maxNew < 0 {
		return fmt.Errorf("%w: negative token budget %d", ErrConfig, maxNew)
	}
	if temperature < 0 {
		return fmt.Errorf("%w: negative temperature %v", ErrConfig, temperature)
	}
	for _, id := range prompt {
		if id < 0 || id >= cfg.Vocab {
			return fmt.Errorf("%w: prompt token %d out of vocab", ErrConfig, id)
		}
	}
	return nil
}

// SampleToken draws from softmax(logits/temperature); temperature 0 is
// argmax.
func SampleToken(rng *tensor.RNG, logits *tensor.Tensor, temperature float64) int {
	vocab := logits.Len()
	if temperature == 0 {
		best, bestV := 0, logits.At(0)
		for i := 1; i < vocab; i++ {
			if v := logits.At(i); v > bestV {
				best, bestV = i, v
			}
		}
		return best
	}
	scaled := logits.Clone()
	scaled.Scale(float32(1 / temperature))
	probs := scaled.MustReshape(1, vocab)
	// SoftmaxRows cannot fail on a well-shaped tensor; reuse in place.
	if err := tensor.SoftmaxRows(probs, probs); err != nil {
		return 0
	}
	u := rng.Float64()
	var cum float64
	for i := 0; i < vocab; i++ {
		cum += float64(probs.At(0, i))
		if u < cum {
			return i
		}
	}
	return vocab - 1
}
