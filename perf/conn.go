package main

import (
	"net"
	"sync/atomic"
)

// countConn counts every byte that crosses one client socket, in both
// directions. The benchmark dials TCP itself and hands the wrapped
// connection to client.New, so wire_bytes_per_step is measured at the
// socket and owes nothing to the program's own counters.
type countConn struct {
	net.Conn
	rx, tx atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// total is the bytes seen so far, both directions.
func (c *countConn) total() int64 { return c.rx.Load() + c.tx.Load() }
