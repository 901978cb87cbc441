package client

import (
	"fmt"

	"menos/internal/model"
	"menos/internal/tensor"
)

// Generate continues the prompt autoregressively *through the split
// deployment*: the input section runs locally, the body on the Menos
// server, the output head locally, one server round-trip per token.
// Temperature 0 means greedy decoding. The context window is capped at
// the session's Hello sequence length, keeping every request within
// the server's priced memory demand.
func (c *Client) Generate(rng *tensor.RNG, prompt []int, maxNew int, temperature float64) ([]int, error) {
	if err := model.CheckPrompt(c.cfg.Model, prompt, maxNew, temperature); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	seq := append([]int(nil), prompt...)
	sc := c.Scratch()
	for step := 0; step < maxNew; step++ {
		window := seq
		if len(window) > c.cfg.Seq {
			window = window[len(window)-c.cfg.Seq:]
		}
		xs, err := c.forwardRoundTrip(window, 1, len(window))
		if err != nil {
			return nil, err
		}
		logits, _, err := c.output.Forward(xs, false)
		if err != nil {
			return nil, fmt.Errorf("client: generate output: %w", err)
		}
		sc.Put(xs)
		last := logits.Row(logits.Dim(0) - 1)
		seq = append(seq, model.SampleToken(rng, last, temperature))
		sc.Put(logits)
	}
	return seq, nil
}
