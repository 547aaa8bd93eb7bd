// Package simfab adapts the in-process wire simulator (internal/wire) to
// the fabric interface. It is a thin shim: all cost-model semantics —
// link serialization horizons, fragment interleaving, modeled latency —
// stay in internal/wire, so every simulation result obtained before the
// fabric layer existed is unchanged.
package simfab

import (
	"fmt"
	"sync/atomic"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/wire"
)

// Fabric wraps a *wire.Fabric as a fabric.Fabric.
type Fabric struct {
	w *wire.Fabric
}

// New wraps w. The caller may keep using w directly; endpoints observe
// all traffic injected either way.
func New(w *wire.Fabric) *Fabric {
	if w == nil {
		panic("simfab: nil wire fabric")
	}
	return &Fabric{w: w}
}

// Nodes implements fabric.Fabric.
func (f *Fabric) Nodes() int { return f.w.Nodes() }

// Endpoint implements fabric.Fabric.
func (f *Fabric) Endpoint(rank int) (fabric.Endpoint, error) {
	if rank < 0 || rank >= f.w.Nodes() {
		return nil, fmt.Errorf("simfab: rank %d outside fabric of %d nodes", rank, f.w.Nodes())
	}
	return &Endpoint{w: f.w, self: rank}, nil
}

// Close implements fabric.Fabric: it closes the simulator, waking every
// endpoint's blocked receivers.
func (f *Fabric) Close() error {
	f.w.Close()
	return nil
}

// Endpoint is one simulated node's port on the wire simulator.
type Endpoint struct {
	w      *wire.Fabric
	self   int
	closed atomic.Bool
}

// Self implements fabric.Endpoint.
func (e *Endpoint) Self() int { return e.self }

// Nodes implements fabric.Endpoint.
func (e *Endpoint) Nodes() int { return e.w.Nodes() }

// Send implements fabric.Endpoint. The simulator retains p itself: the
// modeled wire queues the very packet object and delivers it to the
// destination's PollBatch, so this backend deliberately does not implement
// fabric.SendCapturer — the sender must not touch or recycle p after
// Send, and the *receiver* is the packet's final owner (the engine
// returns handled packets to the fabric packet pool, which is how
// outbound structs circulate even over the simulator).
func (e *Endpoint) Send(p *wire.Packet) error {
	if e.closed.Load() {
		return fabric.ErrClosed
	}
	e.w.Send(p)
	return nil
}

// PollBatch implements fabric.Endpoint: the simulator's inbox hands out
// a run of arrived packets under one lock acquisition. Packets still in
// flight on the modeled wire are not visible yet.
func (e *Endpoint) PollBatch(into []*wire.Packet) int { return e.w.PollBatch(e.self, into) }

// BlockingRecv implements fabric.Endpoint.
func (e *Endpoint) BlockingRecv(timeout time.Duration) *wire.Packet {
	return e.w.BlockingRecv(e.self, timeout)
}

// Backlog implements fabric.Backlogger: the modeled serialization
// horizon of the outgoing link toward dst.
func (e *Endpoint) Backlog(dst int) time.Duration {
	return e.w.LinkBacklog(e.self, dst)
}

// Close implements fabric.Endpoint. The simulated links are shared state,
// so closing any endpoint closes the whole simulated fabric — exactly the
// collective-shutdown semantics mpi.World.Close wants; per-node teardown
// is a real-transport concern (see fabric/tcpfab).
func (e *Endpoint) Close() error {
	e.closed.Store(true)
	e.w.Close()
	return nil
}
