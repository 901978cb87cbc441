package client

import "menos/internal/model"

// CompressionNegotiated reports whether the server accepted compressed
// activation payloads at handshake: a hook for the external tests.
func CompressionNegotiated(c *Client) bool { return c.payload.Negotiated }

// LocalModel is the client's own model: its input and output sections.
func LocalModel(c *Client) *model.Transformer { return c.local }
