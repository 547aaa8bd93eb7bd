package udpfab_test

import (
	"runtime"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/conformance"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/telemetry"
	"pioman/internal/topo"
	"pioman/internal/wire"
)

func openLocal(t *testing.T, nodes int) fabric.Fabric {
	t.Helper()
	l, err := udpfab.NewLocal(nodes)
	if err != nil {
		t.Fatalf("NewLocal(%d): %v", nodes, err)
	}
	return l
}

func TestEndpointConformance(t *testing.T) {
	conformance.RunEndpoint(t, openLocal)
}

// TestManyPeersConformance runs the C10K shape gate at 48 spokes: one
// UDP socket and a fixed two goroutines (read loop + tick loop) per
// endpoint regardless of peer count, so the budget is linear in the
// number of in-process endpoints, not in connections. Not strict-FIFO:
// datagram delivery is on arrival.
func TestManyPeersConformance(t *testing.T) {
	const peers = 48
	conformance.RunManyPeers(t, openLocal, peers, false, 2*(peers+1)+32)
}

// TestPollBatchReadsSocket pins that a polling thread reads its own
// datagrams: at GOMAXPROCS=1 the endpoint's reader goroutine cannot run
// while this one holds the processor, so the frame a Send just put on
// the loopback socket reaches the receiver's first PollBatch only if
// PollBatch reads the socket itself. Without that, each frame waits for
// the scheduler's next netpoll, which a busy processor defers to
// sysmon's 10 ms cadence. The check counts polls; it reads no clock.
func TestPollBatchReadsSocket(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l, err := udpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tx, _ := l.Endpoint(0)
	rx, _ := l.Endpoint(1)
	const sends = 200
	batch := make([]*wire.Packet, 8)
	missed := 0
	for i := 0; i < sends; i++ {
		if err := tx.Send(&wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		n := rx.PollBatch(batch)
		if n == 0 {
			missed++
			for n == 0 {
				runtime.Gosched()
				n = rx.PollBatch(batch)
			}
		}
		if n != 1 || batch[0].Seq != uint64(i) || batch[0].Payload[0] != byte(i) {
			t.Fatalf("send %d: polled %d packets, first %+v", i, n, batch[0])
		}
		fabric.ReleasePacket(batch[0])
	}
	if missed > 0 {
		t.Errorf("%d of %d frames were not on the receiver's first PollBatch after Send returned", missed, sends)
	}
}

// udpWorld builds a 2-node engine world whose inter-node rail runs over
// real loopback UDP datagrams, reliability sublayer and all.
func udpWorld(t *testing.T) *mpi.World {
	t.Helper()
	l, err := udpfab.NewLocal(2)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	rail := nic.UdpParams()
	return mpi.NewWorld(mpi.Config{
		Nodes:          2,
		Machine:        topo.Machine{Sockets: 1, CoresPerSocket: 2},
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		MX:             rail,
		Fabrics:        map[string]fabric.Fabric{rail.Name: l},
	})
}

func TestWorldConformance(t *testing.T) {
	conformance.RunWorld(t, udpWorld)
}

// TestBatchOrderingConformance runs the batched-receive ordering case.
// Not strict-FIFO: datagrams legally reorder in flight and delivery is
// on arrival (receivers reorder by sequence number — the portable
// contract).
func TestBatchOrderingConformance(t *testing.T) {
	conformance.RunBatchOrdering(t, openLocal, false)
}

// TestRailFailoverConformance runs the two-rail loss-injection cases:
// total frame loss on the secondary rail, then partial (50%) loss, and
// rendezvous transfers must still complete over the surviving UDP rail.
func TestRailFailoverConformance(t *testing.T) {
	conformance.RunRailFailover(t, openLocal)
}

// TestSelfHealingConformance runs the acked-replay regression: the UDP
// rail is killed (above its reliability sublayer, so the sublayer cannot
// save it) right after the rendezvous was submitted, and the transfer
// must complete via engine-level replay once the rail revives.
func TestSelfHealingConformance(t *testing.T) {
	conformance.RunSelfHealing(t, openLocal)
}

// TestPeerDeathConformance runs the bounded-failure contract: one rank
// of a three-rank UDP world dies mid-rendezvous, pending requests
// toward it must complete with core.ErrPeerDead within the PeerDeadline
// and the survivors keep communicating.
func TestPeerDeathConformance(t *testing.T) {
	conformance.RunPeerDeath(t, openLocal)
}

// TestSelfHealSoakConformance runs the rail death-and-recovery soak:
// mid-run kill and revival of the secondary UDP rail, probation,
// probe-driven re-admission, and post-recovery traffic on the healed
// rail, whose declared stripe weight must survive unchanged.
func TestSelfHealSoakConformance(t *testing.T) {
	conformance.RunSelfHealSoak(t, openLocal)
}

// TestTelemetrySnapshotConformance runs the observability case: a bonded
// world with a metrics registry attached, the lossy rail's failure
// visible in a registry snapshot under its documented name.
func TestTelemetrySnapshotConformance(t *testing.T) {
	conformance.RunTelemetrySnapshot(t, openLocal)
}

// TestChaosSoakConformance drives the engine-level soak workload over a
// loopback UDP fabric whose transmit path injects datagram-level drop,
// duplication, reordering and corruption beneath the reliability
// sublayer. Every message must still arrive exactly once and intact,
// and the recovery work must be visible in the rail's telemetry: the
// whole point of carrying a retransmit window is that this test cannot
// pass by luck at these injection rates.
func TestChaosSoakConformance(t *testing.T) {
	seed := conformance.ChaosSeed(t)
	reg := telemetry.NewRegistry()
	conformance.RunChaosSoak(t, func(t *testing.T) *mpi.World {
		l, err := udpfab.NewLocalChaos(2, &udpfab.ChaosParams{
			Seed:         seed,
			Drop:         0.02,
			Duplicate:    0.02,
			Reorder:      0.15,
			Corrupt:      0.01,
			ReorderDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewLocalChaos: %v", err)
		}
		rail := nic.UdpParams()
		return mpi.NewWorld(mpi.Config{
			Nodes:          2,
			Machine:        topo.Machine{Sockets: 1, CoresPerSocket: 2},
			Mode:           core.Multithreaded,
			OffloadEager:   true,
			EnableBlocking: true,
			MX:             rail,
			Fabrics:        map[string]fabric.Fabric{rail.Name: l},
			Metrics:        reg,
		})
	})
	snap := reg.Snapshot()
	retrans := snap.Value("node0.rail.udp.retransmits") + snap.Value("node1.rail.udp.retransmits")
	dups := snap.Value("node0.rail.udp.dup_dropped") + snap.Value("node1.rail.udp.dup_dropped")
	t.Logf("soak recovery: %d retransmits, %d duplicates suppressed", retrans, dups)
	if retrans == 0 {
		t.Error("soak under 2% datagram loss drove zero retransmits: the reliability sublayer was not exercised")
	}
}
