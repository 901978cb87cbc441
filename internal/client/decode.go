package client

import (
	"fmt"

	"menos/internal/model"
	"menos/internal/split"
	"menos/internal/tensor"
)

// GenerateIncremental decodes through the split deployment with KV
// caches on both sides: the client's input section decodes over its
// own model.DecodeState, and the server holds the body's in a decode
// session whose memory is reserved through the Menos scheduler. One
// single-row round-trip per token, O(1) model work per side.
//
// ServerKVBytes in the result reports what the session reserved on the
// server — the inference-time memory the Menos design manages.
func (c *Client) GenerateIncremental(rng *tensor.RNG, prompt []int, maxNew int, temperature float64) (tokens []int, serverKVBytes int64, err error) {
	if err := model.CheckPrompt(c.cfg.Model, prompt, maxNew, temperature); err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	capacity := len(prompt) + maxNew
	state, err := c.input.NewDecodeState(capacity)
	if err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}

	// Open the server-side session.
	if err := split.WriteMessage(c.conn, &split.DecodeOpen{Capacity: capacity}); err != nil {
		return nil, 0, fmt.Errorf("client: decode open: %w", err)
	}
	msg, err := split.ReadMessage(c.conn)
	if err != nil {
		return nil, 0, fmt.Errorf("client: decode ack: %w", err)
	}
	ack, ok := msg.(*split.DecodeAck)
	if !ok {
		return nil, 0, fmt.Errorf("client: expected decode ack, got %v", msg.MsgType())
	}
	if !ack.OK {
		return nil, 0, fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	defer func() {
		if werr := split.WriteMessage(c.conn, &split.DecodeClose{}); werr != nil && err == nil {
			err = fmt.Errorf("client: decode close: %w", werr)
		}
	}()

	// step decodes tokenID at the next position: the input section
	// here, the body on the server, the output section here.
	step := func(tokenID int) (*tensor.Tensor, error) {
		pos := state.Len()
		x, err := c.input.DecodeStep(tokenID, state)
		if err != nil {
			return nil, fmt.Errorf("client: decode: %w", err)
		}
		if err := split.WriteMessage(c.conn, &split.DecodeReq{Pos: pos, Activation: x}); err != nil {
			return nil, fmt.Errorf("client: decode send: %w", err)
		}
		resp, err := split.ReadMessage(c.conn)
		if err != nil {
			return nil, fmt.Errorf("client: decode recv: %w", err)
		}
		switch r := resp.(type) {
		case *split.DecodeResp:
			if r.Pos != pos || r.Activation == nil {
				return nil, fmt.Errorf("client: bad decode response at %d", pos)
			}
			logits, _, err := c.output.Forward(r.Activation, false)
			if err != nil {
				return nil, fmt.Errorf("client: decode output: %w", err)
			}
			return logits, nil
		case *split.ErrorMsg:
			return nil, fmt.Errorf("%w: %s", ErrRemote, r.Reason)
		default:
			return nil, fmt.Errorf("client: unexpected %v", resp.MsgType())
		}
	}

	tokens = append([]int(nil), prompt...)
	var logits *tensor.Tensor
	for _, id := range prompt {
		if logits, err = step(id); err != nil {
			return nil, ack.KVBytes, err
		}
	}
	for i := 0; i < maxNew; i++ {
		next := model.SampleToken(rng, logits.Row(0), temperature)
		tokens = append(tokens, next)
		if i == maxNew-1 {
			break
		}
		if logits, err = step(next); err != nil {
			return nil, ack.KVBytes, err
		}
	}
	return tokens, ack.KVBytes, nil
}
