// Package pioman is a Go reproduction of "A multithreaded communication
// engine for multicore architectures" (Trahay, Brunet, Denis, Namyst —
// CAC/IPDPS 2008): the PIOMan event-driven communication engine of the PM2
// software suite, together with the NewMadeleine communication library and
// the Marcel two-level thread scheduler it builds on, all running over a
// simulated Myrinet/MX cluster fabric.
//
// The package exposes the downstream-facing API: build a Cluster (a set of
// simulated multicore nodes), spawn threads on its nodes, and communicate
// with MPI-flavored asynchronous primitives whose progress is driven by
// idle cores exactly as the paper describes.
//
//	cluster := pioman.NewCluster(2)
//	defer cluster.Close()
//	cluster.Run(func(p *pioman.Proc) {
//	    if p.Rank() == 0 {
//	        req := p.Isend(1, 1, data)
//	        p.Compute(20 * time.Microsecond) // overlapped with the copy
//	        p.WaitSend(req)
//	    } else {
//	        buf := make([]byte, len(data))
//	        p.Recv(0, 1, buf)
//	    }
//	})
package pioman

import (
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/topo"
)

// Re-exported types: the working vocabulary of the public API.
type (
	// Cluster is a running simulated cluster.
	Cluster struct{ w *mpi.World }
	// Node is one cluster node (an MPI-process analog).
	Node = mpi.Node
	// Proc is a thread handle bound to a node; all communication and
	// computation happens through it.
	Proc = mpi.Proc
	// SendRequest is an in-flight asynchronous send.
	SendRequest = core.SendReq
	// RecvRequest is an in-flight asynchronous receive.
	RecvRequest = core.RecvReq
)

// AnySource matches receives from any sender.
const AnySource = core.AnySource

// options collects cluster construction parameters.
type options struct {
	cfg mpi.Config
}

// Option customizes NewCluster.
type Option func(*options)

// WithSequentialBaseline builds the cluster with the original
// (non-multithreaded) engine: no offloading, no background progression.
// Use it to compare against the PIOMan-enabled default.
func WithSequentialBaseline() Option {
	return func(o *options) {
		o.cfg.Mode = core.Sequential
		o.cfg.OffloadEager = false
		o.cfg.EnableBlocking = false
	}
}

// WithMachine sets each node's topology (default: dual quad-core Xeon).
func WithMachine(sockets, coresPerSocket int) Option {
	return func(o *options) {
		o.cfg.Machine = topo.Machine{Sockets: sockets, CoresPerSocket: coresPerSocket}
	}
}

// WithStrategy selects the eager optimizer: "aggreg" (default:
// small-message aggregation — a run of ready sends to one peer leaves as
// one frame) or "fifo" (one frame per send). Any other name panics.
func WithStrategy(name string) Option {
	return func(o *options) { o.cfg.Strategy = name }
}

// WithExtraRail adds a second inter-node rail. kind is "tcp" for the
// TCP/10GbE preset. Like the default MX rail it declares a stripe
// weight, so rendezvous payloads of 128 KiB and more stripe across the
// two rails under either strategy.
func WithExtraRail(kind string) Option {
	return func(o *options) {
		switch kind {
		case "tcp":
			o.cfg.ExtraRails = append(o.cfg.ExtraRails, nic.TCPParams())
		default:
			panic("pioman: unknown rail kind " + kind)
		}
	}
}

// WithTrace attaches a per-node flight recorder of the given capacity;
// retrieve it via Cluster.Node(rank).Trace.
func WithTrace(capacity int) Option {
	return func(o *options) { o.cfg.TraceCapacity = capacity }
}

// WithAdaptiveOffload enables the paper's future-work strategy (§5): a
// send defers its submission only when an idle core exists to execute it,
// and submits inline otherwise.
func WithAdaptiveOffload() Option {
	return func(o *options) { o.cfg.AdaptiveOffload = true }
}

// WithoutBlockingFallback disables the blocking-syscall watcher used when
// every core is busy.
func WithoutBlockingFallback() Option {
	return func(o *options) { o.cfg.EnableBlocking = false }
}

// WithTimerPeriod enables the scheduler timer trigger at the given period.
func WithTimerPeriod(d time.Duration) Option {
	return func(o *options) { o.cfg.TimerPeriod = d }
}

// NewCluster starts a simulated cluster of n nodes with the PIOMan-enabled
// multithreaded engine (the paper's configuration: MX-like inter-node rail
// plus an intra-node shared-memory rail).
func NewCluster(n int, opts ...Option) *Cluster {
	o := &options{cfg: mpi.DefaultMultithreaded(n)}
	for _, opt := range opts {
		opt(o)
	}
	o.cfg.Nodes = n
	return &Cluster{w: mpi.NewWorld(o.cfg)}
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return c.w.Size() }

// Node returns the node with the given rank.
func (c *Cluster) Node(rank int) *Node { return c.w.Node(rank) }

// Run spawns fn as one thread on every node and waits for all of them.
func (c *Cluster) Run(fn func(*Proc)) { c.w.RunAll(fn) }

// Multithreaded reports whether the cluster runs the PIOMan-enabled engine.
func (c *Cluster) Multithreaded() bool { return c.w.Mode() == core.Multithreaded }

// Close shuts the cluster down; all spawned threads must have finished.
func (c *Cluster) Close() { c.w.Close() }
