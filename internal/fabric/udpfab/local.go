package udpfab

import (
	"fmt"

	"pioman/internal/fabric"
)

// Local is an in-process UDP fabric: n endpoints bound to loopback
// ephemeral ports with each other's addresses pre-taught — the udpfab
// analog of tcpfab.NewLocal, for tests and single-process benches.
// Every datagram still crosses the kernel's UDP stack.
type Local struct {
	eps []*Endpoint
}

// NewLocal builds an n-node loopback fabric.
func NewLocal(n int) (*Local, error) { return NewLocalChaos(n, nil) }

// NewLocalChaos builds an n-node loopback fabric with datagram-level
// chaos injection on every endpoint's transmit path. Each endpoint gets
// its own random source derived from chaos.Seed and its rank, so a
// multi-endpoint run is replayable from the one logged seed. A nil
// chaos is NewLocal.
func NewLocalChaos(n int, chaos *ChaosParams) (*Local, error) {
	if n <= 0 {
		return nil, fmt.Errorf("udpfab: local fabric needs at least one node")
	}
	l := &Local{eps: make([]*Endpoint, n)}
	for i := range l.eps {
		cfg := Config{Self: i, Nodes: n, Listen: "127.0.0.1:0"}
		if chaos != nil {
			cp := *chaos
			cp.Seed = chaos.Seed*1000003 + int64(i)
			cfg.chaos = &cp
		}
		ep, err := New(cfg)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.eps[i] = ep
	}
	for i, ep := range l.eps {
		for j, other := range l.eps {
			if i != j {
				ep.SetPeerAddr(j, other.Addr().String())
			}
		}
	}
	return l, nil
}

// Nodes implements fabric.Fabric.
func (l *Local) Nodes() int { return len(l.eps) }

// Endpoint implements fabric.Fabric.
func (l *Local) Endpoint(rank int) (fabric.Endpoint, error) {
	if rank < 0 || rank >= len(l.eps) {
		return nil, fmt.Errorf("udpfab: rank %d outside local fabric of %d", rank, len(l.eps))
	}
	return l.eps[rank], nil
}

// Close implements fabric.Fabric.
func (l *Local) Close() error {
	for _, ep := range l.eps {
		if ep != nil {
			ep.Close()
		}
	}
	return nil
}
