// Package mpi assembles simulated cluster nodes into a message-passing
// world with an MPI-flavored API (Isend/Irecv/Wait, Barrier, Bcast,
// Gather), mirroring how the paper's benchmarks drive NewMadeleine
// (nm_isend / nm_swait, one MPI process per node with threads inside,
// §4.3). Each node owns a Marcel scheduler, a PIOMan event server and a
// NewMadeleine engine; nodes share an MX-like inter-node fabric and an
// intra-node shared-memory rail.
package mpi

import (
	"fmt"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/simfab"
	"pioman/internal/nic"
	"pioman/internal/piom"
	"pioman/internal/sched"
	"pioman/internal/telemetry"
	"pioman/internal/topo"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// Config describes a world: its size, each node's topology and engine
// mode, and its rails — simulated by default, real transports where
// Fabrics (or NewDistributed's endpoints) supply them.
type Config struct {
	// Nodes is the number of cluster nodes (default 2, the testbed).
	Nodes int
	// Machine is each node's core topology (default dual quad-core Xeon).
	Machine topo.Machine
	// Mode selects the engine mode for every node.
	Mode core.Mode
	// OffloadEager mirrors core.Config.OffloadEager (default true in
	// Multithreaded mode; set by Default*).
	OffloadEager bool
	// AdaptiveOffload mirrors core.Config.AdaptiveOffload: submit inline
	// when no core is idle (the paper's future-work strategy).
	AdaptiveOffload bool
	// Strategy is the optimizer strategy name.
	Strategy string
	// MultirailMin is the smallest rendezvous payload the multirail
	// strategy stripes across bonded rails (core.Config.MultirailMin;
	// zero selects the engine default, 128 KiB).
	MultirailMin int
	// AutoStripeWeights mirrors core.Config.AutoStripeWeights: each
	// engine's maintenance tick continuously re-tunes the live stripe
	// weights from measured per-rail goodput (EWMA over Stats deltas),
	// so a degraded rail sheds stripe share mid-run. Leave it off for
	// benchmarks that calibrate weights themselves (ForceDataRail
	// sweeps).
	AutoStripeWeights bool
	// MX configures the inter-node rail (zero value: nic.MXParams).
	MX nic.Params
	// SHM configures the intra-node rail; nil Name disables it.
	SHM nic.Params
	// ExtraRails adds more inter-node rails (multirail setups).
	ExtraRails []nic.Params
	// Fabrics overrides the packet transport per rail name: a rail with
	// an entry runs over that fabric (e.g. tcpfab.NewLocal for real
	// sockets), one without runs over an in-process wire simulator built
	// from its link model. The world closes supplied fabrics on Close.
	Fabrics map[string]fabric.Fabric
	// EnableBlocking starts the blocking-call fallback watchers.
	EnableBlocking bool
	// NoIdlePolling keeps idle cores out of the active-polling loop, so
	// progress rides on explicit waits, timer tasklets and the blocking
	// watchers alone. The right mode for real transports on hosts
	// without cores to burn: busy-polling against a socket only starves
	// the kernel of the CPU it needs to deliver the packet.
	NoIdlePolling bool
	// TimerPeriod drives the scheduler timer trigger (0 disables).
	TimerPeriod time.Duration
	// PeerDeadline mirrors core.Config.PeerDeadline: how long the engine
	// keeps replaying toward a silent peer before declaring the rank dead
	// and completing every pending request to it with core.ErrPeerDead
	// (docs/CLUSTER.md). Zero disables engine-local death detection;
	// cluster-launched worlds (JoinCluster) still get registry-driven
	// verdicts through MarkPeerDead.
	PeerDeadline time.Duration
	// TraceCapacity, if positive, attaches an event recorder per node.
	TraceCapacity int
	// Metrics, if non-nil, registers every local node's engine, rails,
	// and event server with the registry (plus the process-wide buffer
	// pool, once per registry), under the "node<rank>.*" /
	// "process.bufpool.*" names docs/OBSERVABILITY.md catalogs. The
	// registry is typically served over HTTP with telemetry.Serve
	// (pingpong -metrics) and watched with cmd/nmtop.
	Metrics *telemetry.Registry
}

// DefaultMultithreaded returns the PIOMan-enabled configuration of the
// paper's testbed: n dual quad-core nodes, MX + shared memory rails.
func DefaultMultithreaded(n int) Config {
	return Config{
		Nodes:          n,
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		MX:             nic.MXParams(),
		SHM:            nic.SHMParams(),
		EnableBlocking: true,
	}
}

// DefaultSequential returns the original-NewMadeleine baseline on the same
// hardware.
func DefaultSequential(n int) Config {
	return Config{
		Nodes: n,
		Mode:  core.Sequential,
		MX:    nic.MXParams(),
		SHM:   nic.SHMParams(),
	}
}

// World is a running cluster: every rank in-process over simulated or
// real fabrics (NewWorld), or one local rank of a multi-process cluster
// whose peers live in other OS processes (NewDistributed).
type World struct {
	cfg   Config
	size  int
	nodes []*Node // indexed by rank; remote ranks are nil
	fabs  []fabric.Fabric
}

// railSet resolves the configured rail parameter list.
func railSet(cfg *Config) []nic.Params {
	if cfg.MX.Name == "" {
		cfg.MX = nic.MXParams()
	}
	railParams := []nic.Params{cfg.MX}
	if cfg.SHM.Name != "" {
		railParams = append(railParams, cfg.SHM)
	}
	return append(railParams, cfg.ExtraRails...)
}

// NewWorld builds and starts a cluster with every rank in this process.
func NewWorld(cfg Config) *World {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	railParams := railSet(&cfg)
	fabrics := make(map[string]fabric.Fabric, len(railParams))
	for _, rp := range railParams {
		if _, dup := fabrics[rp.Name]; dup {
			panic(fmt.Sprintf("mpi: duplicate rail name %q", rp.Name))
		}
		if f := cfg.Fabrics[rp.Name]; f != nil {
			if f.Nodes() < cfg.Nodes {
				panic(fmt.Sprintf("mpi: fabric for rail %q spans %d nodes, world needs %d", rp.Name, f.Nodes(), cfg.Nodes))
			}
			fabrics[rp.Name] = f
		} else {
			fabrics[rp.Name] = simfab.New(wire.NewFabric(cfg.Nodes, rp.Link))
		}
	}

	// A Fabrics key matching no rail would silently fall back to the
	// simulator — every "real transport" measurement would quietly run
	// simulated, and the supplied fabric's listeners would leak.
	for name := range cfg.Fabrics {
		if _, ok := fabrics[name]; !ok {
			panic(fmt.Sprintf("mpi: Fabrics entry %q matches no configured rail", name))
		}
	}

	w := &World{cfg: cfg, size: cfg.Nodes, nodes: make([]*Node, cfg.Nodes)}
	for _, rp := range railParams {
		w.fabs = append(w.fabs, fabrics[rp.Name])
	}
	for rank := 0; rank < cfg.Nodes; rank++ {
		rails := make([]*nic.Driver, 0, len(railParams))
		for _, rp := range railParams {
			ep, err := fabrics[rp.Name].Endpoint(rank)
			if err != nil {
				panic(fmt.Sprintf("mpi: rail %q endpoint %d: %v", rp.Name, rank, err))
			}
			rails = append(rails, nic.New(rp, ep))
		}
		w.nodes[rank] = w.startNode(rank, rails)
	}
	return w
}

// NewDistributed builds the local rank of a cluster whose other ranks run
// in separate OS processes: a single rail over ep (a real transport such
// as fabric/tcpfab). The world's size is ep.Nodes(); Node(r) for a remote
// rank returns nil, and collectives work purely through the transport.
func NewDistributed(cfg Config, rail nic.Params, ep fabric.Endpoint) *World {
	if rail.Name == "" {
		rail = nic.RealParams()
	}
	return NewDistributedBonded(cfg, []Rail{{Params: rail, Ep: ep}})
}

// Rail couples rail parameters with a live endpoint: one physical rail of
// a world bonded over real transports (NewDistributedBonded).
type Rail struct {
	// Params describes the rail driver (thresholds, MTU, stripe weight).
	Params nic.Params
	// Ep is the transport endpoint the rail submits to.
	Ep fabric.Endpoint
}

// NewDistributedBonded builds the local rank of a multi-process cluster
// bonded over several heterogeneous real fabrics at once — the paper's
// MX + shared-memory configuration with, e.g., rails[0] over tcpfab and
// rails[1] over shmfab. rails[0] is the default rail (eager traffic and
// the rendezvous handshake); with Config.Strategy "multirail" the engine
// stripes large rendezvous payloads across every rail with a positive
// stripe weight. All endpoints must agree on rank and cluster size, rail
// names must be unique, and each rail's MTU must fit its fabric's frame
// ceiling — all validated here, at construction, instead of surfacing as
// mid-transfer losses. The engine owns the endpoints' lifecycle from here
// on: World.Close closes them in reverse rail order (secondary rails
// first, the default rail — which carries the shutdown handshakes — last).
func NewDistributedBonded(cfg Config, rails []Rail) *World {
	if len(rails) == 0 {
		panic("mpi: bonded world needs at least one rail")
	}
	self, nodes := rails[0].Ep.Self(), rails[0].Ep.Nodes()
	seen := make(map[string]bool, len(rails))
	for _, r := range rails {
		if r.Params.Name == "" {
			panic("mpi: bonded rail needs a name")
		}
		if seen[r.Params.Name] {
			panic(fmt.Sprintf("mpi: duplicate rail name %q", r.Params.Name))
		}
		seen[r.Params.Name] = true
		if r.Ep == nil {
			panic(fmt.Sprintf("mpi: rail %q has no endpoint", r.Params.Name))
		}
		if r.Ep.Self() != self || r.Ep.Nodes() != nodes {
			panic(fmt.Sprintf("mpi: rail %q endpoint is rank %d of %d, rail %q is rank %d of %d",
				r.Params.Name, r.Ep.Self(), r.Ep.Nodes(), rails[0].Params.Name, self, nodes))
		}
	}
	cfg.Nodes = nodes
	cfg.MX = rails[0].Params
	cfg.SHM = nic.Params{}
	cfg.ExtraRails = nil
	w := &World{cfg: cfg, size: nodes, nodes: make([]*Node, nodes)}
	drivers := make([]*nic.Driver, 0, len(rails))
	for _, r := range rails {
		drivers = append(drivers, nic.New(r.Params, r.Ep))
	}
	w.nodes[self] = w.startNode(self, drivers)
	return w
}

// startNode assembles and starts one node: Marcel scheduler, PIOMan event
// server (Multithreaded mode), NewMadeleine engine over rails.
func (w *World) startNode(rank int, rails []*nic.Driver) *Node {
	cfg := &w.cfg
	if cfg.Machine.NumCores() == 0 {
		cfg.Machine = topo.DualQuadXeon()
	}
	sch := sched.New(sched.Config{
		Machine:     cfg.Machine,
		TimerPeriod: cfg.TimerPeriod,
	})
	var srv *piom.Server
	if cfg.Mode == core.Multithreaded {
		srv = piom.NewServer(sch, piom.Config{
			EnableIdleHook: !cfg.NoIdlePolling,
			EnableBlocking: cfg.EnableBlocking,
		})
	}
	var rec *trace.Recorder
	if cfg.TraceCapacity > 0 {
		rec = trace.NewRecorder(cfg.TraceCapacity)
	}
	eng := core.New(rank, sch, srv, rails, core.Config{
		Mode:              cfg.Mode,
		OffloadEager:      cfg.OffloadEager,
		AdaptiveOffload:   cfg.AdaptiveOffload,
		Strategy:          cfg.Strategy,
		MultirailMin:      cfg.MultirailMin,
		AutoStripeWeights: cfg.AutoStripeWeights,
		PeerDeadline:      cfg.PeerDeadline,
		Trace:             rec,
		Metrics:           cfg.Metrics,
	})
	if cfg.Metrics != nil {
		registerNodeMetrics(cfg.Metrics, rank, srv)
	}
	n := &Node{world: w, rank: rank, Sch: sch, Srv: srv, Eng: eng, Trace: rec}
	if srv != nil {
		srv.Start()
	}
	return n
}

// Size returns the number of nodes in the cluster (including, for a
// distributed world, ranks hosted by other processes).
func (w *World) Size() int { return w.size }

// Node returns the node with the given rank, or nil when that rank lives
// in another process (distributed worlds).
func (w *World) Node(rank int) *Node { return w.nodes[rank] }

// Mode reports the engine mode of the world.
func (w *World) Mode() core.Mode { return w.cfg.Mode }

// RunAll spawns fn as one thread on every local node and joins them all.
// The rank is available via Proc.Rank.
func (w *World) RunAll(fn func(*Proc)) {
	ths := make([]*sched.Thread, 0, len(w.nodes))
	for _, n := range w.nodes {
		if n == nil {
			continue
		}
		node := n
		ths = append(ths, node.Sch.Spawn(fmt.Sprintf("rank%d", node.rank), func(th *sched.Thread) {
			fn(&Proc{Node: node, Th: th})
		}))
	}
	for _, th := range ths {
		th.Join()
	}
}

// Close shuts the cluster down: event servers stop, rail transports close
// (waking anything blocked on a socket), schedulers wind down. All
// spawned threads must have completed.
func (w *World) Close() {
	for _, n := range w.nodes {
		if n == nil {
			continue
		}
		if n.Srv != nil {
			n.Srv.Stop()
		}
		n.Eng.Close()
		n.Sch.Shutdown()
	}
	// Close the fabrics themselves: Engine.Close only reached the
	// endpoints this world's ranks own, and a supplied fabric may span
	// more ranks (whose listeners would otherwise leak).
	for _, f := range w.fabs {
		f.Close()
	}
}
