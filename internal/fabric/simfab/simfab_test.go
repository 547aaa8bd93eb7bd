package simfab_test

import (
	"testing"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/fabric/conformance"
	"pioman/internal/fabric/simfab"
	"pioman/internal/mpi"
	"pioman/internal/topo"
	"pioman/internal/wire"
)

func TestEndpointConformance(t *testing.T) {
	conformance.RunEndpoint(t, func(t *testing.T, nodes int) fabric.Fabric {
		return simfab.New(wire.NewFabric(nodes, wire.MYRI10G()))
	})
}

// TestManyPeersConformance runs the C10K shape gate over the simulated
// wire: delivery is synchronous (no servicing goroutines at all), so
// the budget only covers test-transient runtime goroutines. Not
// strict-FIFO: the simulator's fragmenting wire may interleave.
func TestManyPeersConformance(t *testing.T) {
	conformance.RunManyPeers(t, func(t *testing.T, nodes int) fabric.Fabric {
		return simfab.New(wire.NewFabric(nodes, wire.MYRI10G()))
	}, 64, false, 32)
}

func TestWorldConformance(t *testing.T) {
	conformance.RunWorld(t, func(t *testing.T) *mpi.World {
		// The default world path: simulated MX rail built implicitly
		// from the link model — the exact configuration every
		// pre-fabric simulation result was measured on.
		cfg := mpi.DefaultMultithreaded(2)
		cfg.Machine = topo.Machine{Sockets: 1, CoresPerSocket: 2}
		return mpi.NewWorld(cfg)
	})
}

// TestChaosSoakConformance drives the engine-level soak workload over
// the simulated wire wrapped in a seeded Chaos injecting frame
// reordering and latency on top of the simulator's own fragment
// interleaving. (Drop/duplicate/corrupt would violate the delivery
// contract the simulator guarantees; udpfab's soak injects those below
// its reliability sublayer instead.)
func TestChaosSoakConformance(t *testing.T) {
	seed := conformance.ChaosSeed(t)
	conformance.RunChaosSoak(t, func(t *testing.T) *mpi.World {
		cfg := mpi.DefaultMultithreaded(2)
		cfg.Machine = topo.Machine{Sockets: 1, CoresPerSocket: 2}
		cfg.Fabrics = map[string]fabric.Fabric{
			cfg.MX.Name: conformance.NewChaos(
				simfab.New(wire.NewFabric(2, cfg.MX.Link)),
				conformance.ChaosConfig{
					Seed:         seed,
					Reorder:      0.15,
					ReorderDelay: time.Millisecond,
					Latency:      200 * time.Microsecond,
				}),
		}
		return mpi.NewWorld(cfg)
	})
}

// TestBatchOrderingConformance runs the batched-receive ordering case:
// two concurrent senders, a PollBatch-only receiver, exactly-once
// delivery across batch boundaries. Not strict-FIFO: the simulated
// wire's fragment interleaving legally reorders same-size small packets
// (receivers reorder by sequence number — the portable contract).
func TestBatchOrderingConformance(t *testing.T) {
	conformance.RunBatchOrdering(t, func(t *testing.T, nodes int) fabric.Fabric {
		return simfab.New(wire.NewFabric(nodes, wire.MYRI10G()))
	}, false)
}

// TestRailFailoverConformance runs the two-rail loss-injection case: the
// secondary rail drops every frame, and rendezvous transfers must still
// complete over the surviving simulated rail.
func TestRailFailoverConformance(t *testing.T) {
	conformance.RunRailFailover(t, func(t *testing.T, nodes int) fabric.Fabric {
		return simfab.New(wire.NewFabric(nodes, wire.MYRI10G()))
	})
}

// TestSelfHealingConformance runs the acked-replay regression: the
// simulated rail is killed right after the rendezvous was submitted, and
// the transfer must complete via engine-level replay once it revives.
func TestSelfHealingConformance(t *testing.T) {
	conformance.RunSelfHealing(t, func(t *testing.T, nodes int) fabric.Fabric {
		return simfab.New(wire.NewFabric(nodes, wire.MYRI10G()))
	})
}

// TestPeerDeathConformance runs the bounded-failure contract: one rank
// of a three-rank simulated world dies mid-rendezvous, pending requests
// toward it must complete with core.ErrPeerDead within the PeerDeadline
// and the survivors keep communicating.
func TestPeerDeathConformance(t *testing.T) {
	conformance.RunPeerDeath(t, func(t *testing.T, nodes int) fabric.Fabric {
		return simfab.New(wire.NewFabric(nodes, wire.MYRI10G()))
	})
}

// TestSelfHealSoakConformance runs the rail death-and-recovery soak:
// mid-run kill and revival of the secondary simulated rail, probation,
// probe-driven re-admission, and post-recovery traffic on the healed
// rail, whose declared stripe weight must survive unchanged.
func TestSelfHealSoakConformance(t *testing.T) {
	conformance.RunSelfHealSoak(t, func(t *testing.T, nodes int) fabric.Fabric {
		return simfab.New(wire.NewFabric(nodes, wire.MYRI10G()))
	})
}

// TestTelemetrySnapshotConformance runs the observability case: a bonded
// world with a metrics registry attached, the lossy rail's failure
// visible in a registry snapshot under its documented name.
func TestTelemetrySnapshotConformance(t *testing.T) {
	conformance.RunTelemetrySnapshot(t, func(t *testing.T, nodes int) fabric.Fabric {
		return simfab.New(wire.NewFabric(nodes, wire.MYRI10G()))
	})
}

// TestWorldConformanceExplicitFabric pins the Fabrics override path: a
// simfab instance supplied through the config must behave identically to
// the implicit one.
func TestWorldConformanceExplicitFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestWorldConformance")
	}
	conformance.RunWorld(t, func(t *testing.T) *mpi.World {
		cfg := mpi.DefaultMultithreaded(2)
		cfg.Machine = topo.Machine{Sockets: 1, CoresPerSocket: 2}
		cfg.Fabrics = map[string]fabric.Fabric{
			cfg.MX.Name: simfab.New(wire.NewFabric(2, cfg.MX.Link)),
		}
		return mpi.NewWorld(cfg)
	})
}
