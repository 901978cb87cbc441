package client

// CompressionNegotiated reports whether the server accepted compressed
// activation payloads at handshake: a hook for the external tests.
func CompressionNegotiated(c *Client) bool { return c.payload.Negotiated }
