package tcpfab_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/conformance"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/telemetry"
	"pioman/internal/testenv"
	"pioman/internal/topo"
	"pioman/internal/wire"
)

func TestEndpointConformance(t *testing.T) {
	conformance.RunEndpoint(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := tcpfab.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestManyPeersConformance is the C10K shape gate: a 64-spoke hub
// exchange over real localhost sockets, strict per-sender FIFO, with
// goroutine growth bounded by the endpoint count rather than the stream
// count. The budget admits one accept loop and one poller per in-process
// endpoint, however many streams simultaneous connect leaves a pair —
// the old goroutine-per-stream design measured ~7×peers here and fails
// it.
func TestManyPeersConformance(t *testing.T) {
	const peers = 64
	conformance.RunManyPeers(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := tcpfab.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	}, peers, true, 2*peers+48)
}

// realWorld builds a 2-node engine world whose inter-node rail runs over
// real localhost sockets.
func realWorld(t *testing.T) *mpi.World {
	t.Helper()
	l, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	rail := nic.RealParams()
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
	conformance.RunWorld(t, realWorld)
}

// TestChaosSoakConformance drives the engine-level soak workload over
// localhost sockets wrapped in a seeded Chaos injecting the disorder a
// reliable stream transport legitimately exhibits at the frame level:
// reordering across the wrapper's delivery queues plus added latency.
// (Drop/duplicate/corrupt would violate the delivery contract tcpfab
// itself guarantees; udpfab's soak injects those below its reliability
// sublayer instead.)
func TestChaosSoakConformance(t *testing.T) {
	seed := conformance.ChaosSeed(t)
	conformance.RunChaosSoak(t, func(t *testing.T) *mpi.World {
		l, err := tcpfab.NewLocal(2)
		if err != nil {
			t.Fatalf("NewLocal: %v", err)
		}
		chaotic := conformance.NewChaos(l, conformance.ChaosConfig{
			Seed:         seed,
			Reorder:      0.15,
			ReorderDelay: time.Millisecond,
			Latency:      200 * time.Microsecond,
		})
		rail := nic.RealParams()
		return mpi.NewWorld(mpi.Config{
			Nodes:          2,
			Machine:        topo.Machine{Sockets: 1, CoresPerSocket: 2},
			Mode:           core.Multithreaded,
			OffloadEager:   true,
			EnableBlocking: true,
			MX:             rail,
			Fabrics:        map[string]fabric.Fabric{rail.Name: chaotic},
		})
	})
}

// TestBatchOrderingConformance runs the batched-receive ordering case:
// two concurrent senders, a PollBatch-only receiver, per-sender FIFO and
// no loss or duplication across batch boundaries.
func TestBatchOrderingConformance(t *testing.T) {
	conformance.RunBatchOrdering(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := tcpfab.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	}, true) // one stream per peer: strict per-sender FIFO
}

// TestRailFailoverConformance runs the two-rail loss-injection case: the
// secondary rail accepts and drops every frame, and rendezvous transfers
// must still complete over the surviving real-socket rail.
func TestRailFailoverConformance(t *testing.T) {
	conformance.RunRailFailover(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := tcpfab.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestSelfHealingConformance runs the acked-replay regression: the
// socket rail is killed right after the rendezvous was submitted (loss
// surfacing only asynchronously), and the transfer must complete via
// engine-level replay once the rail revives.
func TestSelfHealingConformance(t *testing.T) {
	conformance.RunSelfHealing(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := tcpfab.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestPeerDeathConformance runs the bounded-failure contract: one rank
// of a three-rank loopback-TCP world dies mid-rendezvous, pending
// requests toward it must complete with core.ErrPeerDead within the
// PeerDeadline and the survivors keep communicating.
func TestPeerDeathConformance(t *testing.T) {
	conformance.RunPeerDeath(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := tcpfab.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestSelfHealSoakConformance runs the rail death-and-recovery soak:
// mid-run kill and revival of the secondary socket rail, probation,
// probe-driven re-admission, and post-recovery traffic on the healed
// rail, whose declared stripe weight must survive unchanged.
func TestSelfHealSoakConformance(t *testing.T) {
	conformance.RunSelfHealSoak(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := tcpfab.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestTelemetrySnapshotConformance runs the observability case: a bonded
// world with a metrics registry attached, the lossy rail's failure
// visible in a registry snapshot under its documented name.
func TestTelemetrySnapshotConformance(t *testing.T) {
	conformance.RunTelemetrySnapshot(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := tcpfab.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestStrictFIFO pins the stronger ordering tcpfab provides beyond the
// portable contract: one sender's stream arrives in exact send order.
func TestStrictFIFO(t *testing.T) {
	l, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(0)
	dst, _ := l.Endpoint(1)
	const n = 500
	for i := 1; i <= n; i++ {
		size := 8
		if i%9 == 0 {
			size = 32 << 10
		}
		if err := src.Send(&wire.Packet{
			Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i),
			Payload: bytes.Repeat([]byte{byte(i)}, size),
		}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 1; i <= n; i++ {
		p := dst.BlockingRecv(30 * time.Second)
		if p == nil {
			t.Fatalf("stream dried up at packet %d", i)
		}
		if p.Seq != uint64(i) {
			t.Fatalf("packet %d arrived as %d: TCP stream reordered", i, p.Seq)
		}
	}
}

// TestStrictFIFOTwoReaders drains one stream only through PollBatch,
// from a goroutine that spins while the receiver's poller runs, so the
// two readers of the stream interleave. Frame sizes sweep from 8 B to
// 200 KiB, past the staging window, so one reader starts a large frame
// and the other finishes it. Every frame must arrive once, in send
// order, with its bytes intact.
func TestStrictFIFOTwoReaders(t *testing.T) {
	l, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(0)
	dst, _ := l.Endpoint(1)
	const n = 300
	size := func(i int) int {
		if i%3 != 0 {
			return 8 + i%200
		}
		return 8 + (i*i*4099)%(200<<10)
	}
	fill := func(b []byte, i int) {
		for j := range b {
			b[j] = byte(i*31 + j*7 + j>>8)
		}
	}
	errc := make(chan error, 1)
	go func() {
		batch := make([]*wire.Packet, 8)
		want := make([]byte, 200<<10+8)
		next := 1
		deadline := time.Now().Add(30 * time.Second)
		for next <= n {
			k := dst.PollBatch(batch)
			if k == 0 {
				if time.Now().After(deadline) {
					errc <- fmt.Errorf("stream dried up at frame %d", next)
					return
				}
				runtime.Gosched()
				continue
			}
			for _, p := range batch[:k] {
				w := want[:size(next)]
				fill(w, next)
				if p.Seq != uint64(next) || !bytes.Equal(p.Payload, w) {
					errc <- fmt.Errorf("frame %d arrived as seq %d with %d bytes (want %d), or corrupted", next, p.Seq, len(p.Payload), len(w))
					return
				}
				fabric.ReleasePacket(p)
				next++
			}
		}
		errc <- nil
	}()
	buf := make([]byte, 200<<10+8)
	for i := 1; i <= n; i++ {
		b := buf[:size(i)]
		fill(b, i)
		if err := src.Send(&wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i), Payload: b}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	batch := make([]*wire.Packet, 8)
	if k := dst.PollBatch(batch); k != 0 {
		t.Fatalf("PollBatch returned %d frames past the last one sent", k)
	}
}

// TestPollBatchReadsSocket pins that a thread polling tcpfab reads the
// socket itself: at GOMAXPROCS=1 the receiver's poller cannot run
// between a Send and the receiver's next PollBatch, so only a PollBatch
// that reads the stream finds the frame on its first call. The gap
// before each Send makes it flush inline, on the test goroutine. The
// check counts calls and reads no clock.
func TestPollBatchReadsSocket(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tx, _ := l.Endpoint(0)
	rx, _ := l.Endpoint(1)
	batch := make([]*wire.Packet, 8)
	payload := make([]byte, 64)
	send := func(seq int) {
		t.Helper()
		payload[0] = byte(seq)
		if err := tx.Send(&wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(seq), Payload: payload}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	// poll returns how many PollBatch calls it took to get frame seq.
	poll := func(seq int) int {
		t.Helper()
		calls := 1
		n := rx.PollBatch(batch)
		for ; n == 0; calls++ {
			runtime.Gosched()
			n = rx.PollBatch(batch)
		}
		if n != 1 || batch[0].Seq != uint64(seq) || batch[0].Payload[0] != byte(seq) {
			t.Fatalf("frame %d: polled %d packets, first %+v", seq, n, batch[0])
		}
		fabric.ReleasePacket(batch[0])
		return calls
	}
	// Warm up: dial, handshake, and the receiver's poller adopting the
	// stream all happen off the measured sends.
	const warm = 5
	for i := 0; i < warm; i++ {
		send(i)
		poll(i)
	}
	const sends = 200
	missed := 0
	for i := warm; i < warm+sends; i++ {
		for start := time.Now(); time.Since(start) < 2*tcpfab.InlineGap; {
		}
		send(i)
		if poll(i) > 1 {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("%d of %d frames were not on the receiver's first PollBatch after Send returned", missed, sends)
	}
}

// TestPolledReadFailureReachesPoller covers a malformed frame read by a
// polling thread rather than the poller. Only the poller fails streams,
// so the thread must hand the failure over: at GOMAXPROCS=1 the poller
// cannot run between the peer's write and the thread's PollBatch, and
// once the thread has drained the socket no readiness is left to bring
// the poller to the stream by itself. The good frame ahead of the
// garbage must arrive once, and the endpoint must drop the stream.
func TestPolledReadFailureReachesPoller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ep, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	c, err := net.Dial("tcp", ep.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hs := make([]byte, 16)
	for i, v := range []uint32{0x50494F4D, 1, 1, 2} { // magic, version, rank 1, 2 nodes
		binary.LittleEndian.PutUint32(hs[4*i:], v)
	}
	if _, err := c.Write(hs); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the endpoint registers the stream", func() bool { return ep.OpenConns() == 1 })
	frames := fabric.AppendPacket(nil, &wire.Packet{Kind: wire.PktCtrl, Src: 1, Dst: 0, Seq: 7, Payload: []byte("ok")})
	frames = append(frames, bytes.Repeat([]byte{0xff}, fabric.HeaderScratchBytes)...)
	if _, err := c.Write(frames); err != nil {
		t.Fatal(err)
	}
	batch := make([]*wire.Packet, 4)
	n := ep.PollBatch(batch)
	for deadline := time.Now().Add(30 * time.Second); n == 0 && time.Now().Before(deadline); {
		runtime.Gosched()
		n = ep.PollBatch(batch)
	}
	if n != 1 || batch[0].Seq != 7 || string(batch[0].Payload) != "ok" {
		t.Fatalf("polled %d packets ahead of the malformed frame, first %+v", n, batch[0])
	}
	fabric.ReleasePacket(batch[0])
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the endpoint kept the stream open after a malformed frame (read: %v)", err)
	}
	eventually(t, "the stream is torn down", func() bool { return ep.OpenConns() == 0 })
	if k := ep.PollBatch(batch); k != 0 {
		t.Fatalf("PollBatch returned %d packets after the malformed frame", k)
	}
}

// TestAsymmetricTopology exercises the pingpong deployment shape: rank 0
// listens, rank 1 knows rank 0's address, rank 0 learns rank 1 only from
// its accepted connection — and must still be able to send back.
func TestAsymmetricTopology(t *testing.T) {
	ep0, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	ep1, err := tcpfab.New(tcpfab.Config{
		Self: 1, Nodes: 2,
		Peers: map[int]string{0: ep0.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()

	// Rank 0 cannot reach rank 1 yet: no address, no connection.
	if err := ep0.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 0, Dst: 1}); err == nil {
		t.Fatal("send to unknown unconnected peer did not error")
	}
	// Rank 1 speaks first; its connection becomes rank 0's return path.
	if err := ep1.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 1, Dst: 0, Payload: []byte("hi")}); err != nil {
		t.Fatalf("dial-side send: %v", err)
	}
	if p := ep0.BlockingRecv(30 * time.Second); p == nil || string(p.Payload) != "hi" {
		t.Fatalf("listen side received %+v", p)
	}
	if err := ep0.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 0, Dst: 1, Payload: []byte("yo")}); err != nil {
		t.Fatalf("reply over adopted connection: %v", err)
	}
	if p := ep1.BlockingRecv(30 * time.Second); p == nil || string(p.Payload) != "yo" {
		t.Fatalf("dial side received %+v", p)
	}
}

// TestSimultaneousConnect drives both sides of a cold pair into dialing
// each other at once — the race where each endpoint can adopt the peer's
// dialed stream as its send path while its own dial is still in flight.
// Whatever streams the race leaves standing, no packet may be lost:
// frames written to an adopted stream must never be RST away by the
// other side discarding its "redundant" dialed connection.
func TestSimultaneousConnect(t *testing.T) {
	const rounds = 40
	const burst = 20
	for round := 0; round < rounds; round++ {
		ep0, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		ep1, err := tcpfab.New(tcpfab.Config{Self: 1, Nodes: 2, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		ep0.SetPeerAddr(1, ep1.Addr().String())
		ep1.SetPeerAddr(0, ep0.Addr().String())

		start := make(chan struct{})
		var wg sync.WaitGroup
		send := func(ep fabric.Endpoint, src, dst int) {
			defer wg.Done()
			<-start
			for i := 0; i < burst; i++ {
				if err := ep.Send(&wire.Packet{
					Kind: wire.PktEager, Src: src, Dst: dst, Seq: uint64(i + 1),
					Payload: []byte{byte(i)},
				}); err != nil {
					t.Errorf("round %d: send %d->%d: %v", round, src, dst, err)
					return
				}
			}
		}
		wg.Add(2)
		go send(ep0, 0, 1)
		go send(ep1, 1, 0)
		close(start)
		wg.Wait()

		for name, ep := range map[string]*tcpfab.Endpoint{"rank 0": ep0, "rank 1": ep1} {
			for i := 0; i < burst; i++ {
				if p := ep.BlockingRecv(30 * time.Second); p == nil {
					t.Fatalf("round %d: %s lost a packet to the simultaneous-connect race (%d/%d arrived)",
						round, name, i, burst)
				}
			}
		}
		ep0.Close()
		ep1.Close()
	}
}

// TestReconnectAfterPeerRestart is the connection-resilience regression
// case: the listening peer dies and comes back on the same address a
// moment later. The sender's first sends race the failure — frames
// queued on the dying stream are lost and counted — but once the stream
// failure unregisters the conn, Send must redial, riding out the restart
// gap with backoff, and traffic must flow to the restarted peer. Before
// reconnect-with-backoff existed, the redial hit "connection refused"
// during the gap and the peer stayed unreachable forever.
func TestReconnectAfterPeerRestart(t *testing.T) {
	ep0, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := ep0.Addr().String()
	ep1, err := tcpfab.New(tcpfab.Config{Self: 1, Nodes: 2, Peers: map[int]string{0: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()

	if err := ep1.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 1, Dst: 0, Seq: 1, Payload: []byte("pre")}); err != nil {
		t.Fatalf("send before restart: %v", err)
	}
	if p := ep0.BlockingRecv(30 * time.Second); p == nil || string(p.Payload) != "pre" {
		t.Fatalf("packet before restart: %+v", p)
	}

	// Kill the peer, and restart it on the same address only after a
	// delay, so ep1's redials land in the refused window first.
	ep0.Close()
	restarted := make(chan *tcpfab.Endpoint, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		// The listener just closed, but give the OS a beat to release
		// the port if it needs one.
		for i := 0; ; i++ {
			ep, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: addr})
			if err == nil {
				restarted <- ep
				return
			}
			if i > 100 {
				t.Errorf("could not rebind %s: %v", addr, err)
				restarted <- nil
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	// Keep sending through the outage. Early frames may be lost with the
	// dead stream (that loss is the documented LostFrames signal); a later
	// send must reconnect and deliver.
	deadline := time.Now().Add(30 * time.Second)
	for seq := uint64(2); ; seq++ {
		if time.Now().After(deadline) {
			t.Fatal("sender never reconnected to the restarted peer")
		}
		err := ep1.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 1, Dst: 0, Seq: seq, Payload: []byte("post")})
		if err != nil {
			// The whole backoff window expired against the gap — legal if
			// the restart took longer than the window; try again.
			continue
		}
		break
	}
	ep2 := <-restarted
	if ep2 == nil {
		t.FailNow()
	}
	defer ep2.Close()
	// At least one post-restart send must arrive (keep nudging: a frame
	// accepted onto the dying stream may have been dropped with it).
	got := make(chan *wire.Packet, 1)
	go func() { got <- ep2.BlockingRecv(30 * time.Second) }()
	seq := uint64(1000)
	for {
		select {
		case p := <-got:
			if p == nil || string(p.Payload) != "post" {
				t.Fatalf("restarted peer received %+v", p)
			}
			return
		case <-time.After(100 * time.Millisecond):
			seq++
			ep1.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 1, Dst: 0, Seq: seq, Payload: []byte("post")})
		}
	}
}

// TestKillConnZeroLoss is the dead-stream requeue regression: frames
// sitting in a failed stream's writer queue used to be discarded and
// counted in LostFrames even when the immediate redial succeeded. The
// guaranteed-undelivered run must instead be stashed and re-sent on the
// redialed stream ahead of new traffic — so killing the established
// connection between two quiescent endpoints and continuing to send
// must deliver every frame, in order, with zero engine-visible loss.
func TestKillConnZeroLoss(t *testing.T) {
	killConnZeroLoss(t, 64, 8, 64)
}

// TestKillConnZeroLossLargeFrames repeats the requeue regression with
// 1 MiB frames, whose queue grows through the buffer pool: the frames
// sent right after the kill cross the dying stream's queue, the failure
// stash and the redialed stream, so a pooled buffer returned while one
// of those still referenced it would show up as a corrupted frame.
func TestKillConnZeroLossLargeFrames(t *testing.T) {
	killConnZeroLoss(t, 1<<20, 2, 16)
}

// killConnZeroLoss sends pre frames of size bytes and receives them, so
// the kill hits an idle writer, kills the stream, then sends post more
// right away. Every frame carries its own byte pattern, written into one
// reused buffer (legal the moment Send returns), and must arrive intact,
// in order, with no loss counted.
func killConnZeroLoss(t *testing.T, size, pre, post int) {
	ep0, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	ep1, err := tcpfab.New(tcpfab.Config{
		Self: 1, Nodes: 2, Listen: "127.0.0.1:0",
		Peers: map[int]string{0: ep0.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()

	pattern := func(buf []byte, seq uint64) {
		for i := range buf {
			buf[i] = byte(int(seq)*131 + i*7 + i>>9)
		}
	}
	buf := make([]byte, size)
	want := make([]byte, size)
	send := func(seq uint64) {
		t.Helper()
		pattern(buf, seq)
		if err := ep1.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 1, Dst: 0, Seq: seq, Payload: buf}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	recv := func(seq uint64) {
		t.Helper()
		p := ep0.BlockingRecv(30 * time.Second)
		if p == nil {
			t.Fatalf("timed out waiting for frame %d", seq)
		}
		if p.Seq != seq {
			t.Fatalf("frame %d: got seq %d", seq, p.Seq)
		}
		if pattern(want, seq); !bytes.Equal(p.Payload, want) {
			t.Fatalf("frame %d: payload corrupted", seq)
		}
		fabric.ReleasePacket(p)
	}

	// Warm up and flush: every pre-kill frame is received before the
	// kill, so the failure hits an idle writer. (Bytes racing a real
	// stream failure are legitimately written off as possibly-delivered;
	// this test pins the queued-but-never-written case.)
	for seq := uint64(1); seq <= uint64(pre); seq++ {
		send(seq)
	}
	for seq := uint64(1); seq <= uint64(pre); seq++ {
		recv(seq)
	}

	if !ep1.KillConn(0) {
		t.Fatal("no established stream to kill")
	}
	// Keep sending immediately: these frames land either on the dying
	// stream's queue (stashed, then replayed on the redialed stream) or
	// on the redialed stream directly. Every one must arrive, in order.
	for seq := uint64(pre + 1); seq <= uint64(pre+post); seq++ {
		send(seq)
	}
	for seq := uint64(pre + 1); seq <= uint64(pre+post); seq++ {
		recv(seq)
	}
	if n := ep1.LostFrames(); n != 0 {
		t.Fatalf("LostFrames = %d after kill with successful redial, want 0", n)
	}
}

// quietPair opens two connected endpoints with one frame already
// exchanged, so each side's poller is running and owns the stream.
func quietPair(t *testing.T) (ep0, ep1 *tcpfab.Endpoint) {
	t.Helper()
	ep0, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep0.Close() })
	ep1, err = tcpfab.New(tcpfab.Config{
		Self: 1, Nodes: 2, Listen: "127.0.0.1:0",
		Peers: map[int]string{0: ep0.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep1.Close() })
	sendRecv(t, ep1, ep0, 1)
	return ep0, ep1
}

// sendRecv moves one frame from ep1 to ep0 and checks it.
func sendRecv(t *testing.T, ep1, ep0 *tcpfab.Endpoint, seq uint64) {
	t.Helper()
	if err := ep1.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 1, Dst: 0, Seq: seq, Payload: []byte("park")}); err != nil {
		t.Fatalf("send %d: %v", seq, err)
	}
	p := ep0.BlockingRecv(30 * time.Second)
	if p == nil || p.Seq != seq || string(p.Payload) != "park" {
		t.Fatalf("frame %d: got %+v", seq, p)
	}
}

// eventually polls cond until it holds; what is a failure message.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestParkedPollerWakes covers the quiet phase of the event loop: a
// poller past its spin passes sleeps in the Go netpoller on the nested
// epoll descriptor, and both kinds of edge must reach it there — a
// socket turning readable (a frame, a peer's hang-up) and the wake pipe
// (KillConn's mailbox; the Send after a quiet gap flushes inline and
// leaves the sender's poller asleep).
func TestParkedPollerWakes(t *testing.T) {
	ep0, ep1 := quietPair(t)
	parked := func() bool { return ep0.PollersParked() && ep1.PollersParked() }

	eventually(t, "both pollers park", parked)
	time.Sleep(2 * time.Millisecond) // let them reach the netpoller; no verdict rides on it
	sendRecv(t, ep1, ep0, 2)

	eventually(t, "both pollers park again", parked)
	time.Sleep(2 * time.Millisecond)
	if !ep1.KillConn(0) {
		t.Fatal("no established stream to kill")
	}
	eventually(t, "the killed stream is torn down on both sides", func() bool {
		return ep1.OpenConns() == 0 && ep0.OpenConns() == 0
	})

	// The machinery behind the woken pollers still works: redial, deliver.
	sendRecv(t, ep1, ep0, 3)
}

// TestOnePollerPerEndpoint pins the poller shape: however many peers an
// endpoint talks to and however many processors the host offers, one
// event-loop goroutine services all of its streams. A hub exchanges a
// frame each way with three spokes at GOMAXPROCS >= 2, then every
// endpoint's pollers gauge must read 1.
func TestOnePollerPerEndpoint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const spokes = 3
	l, err := tcpfab.NewLocal(spokes + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := telemetry.NewRegistry()
	eps := make([]*tcpfab.Endpoint, spokes+1)
	for r := range eps {
		ep, _ := l.Endpoint(r)
		eps[r] = ep.(*tcpfab.Endpoint)
		eps[r].RegisterMetrics(reg, fmt.Sprintf("ep%d", r))
	}
	hub := eps[0]
	for r := 1; r <= spokes; r++ {
		if err := hub.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 0, Dst: r, Seq: 1, Payload: []byte("out")}); err != nil {
			t.Fatalf("send to spoke %d: %v", r, err)
		}
	}
	for r := 1; r <= spokes; r++ {
		if p := eps[r].BlockingRecv(30 * time.Second); p == nil || p.Src != 0 {
			t.Fatalf("spoke %d: got %+v from the hub", r, p)
		}
		if err := eps[r].Send(&wire.Packet{Kind: wire.PktCtrl, Src: r, Dst: 0, Seq: 1, Payload: []byte("back")}); err != nil {
			t.Fatalf("spoke %d reply: %v", r, err)
		}
	}
	from := map[int]bool{}
	for range spokes {
		p := hub.BlockingRecv(30 * time.Second)
		if p == nil {
			t.Fatalf("hub got replies from %v, want all %d spokes", from, spokes)
		}
		from[p.Src] = true
	}
	if len(from) != spokes {
		t.Fatalf("hub got replies from %v, want all %d spokes", from, spokes)
	}
	if n := hub.OpenConns(); n < spokes {
		t.Fatalf("hub holds %d streams, want at least %d", n, spokes)
	}
	snap := reg.Snapshot()
	for r := range eps {
		if n := snap.Value(fmt.Sprintf("ep%d.pollers", r)); n != 1 {
			t.Errorf("endpoint %d runs %d pollers, want 1", r, n)
		}
	}
}

// TestSendNeverBlocksOnStalledReceiver pins the Endpoint contract that
// Send buffers rather than blocking on the receiver making progress: a
// sender must be able to queue far more than the kernel socket buffers
// hold while the receiver polls nothing at all. (With a synchronous
// socket write under the hood, two ranks flooding eager traffic at each
// other before polling would distributed-deadlock.)
func TestSendNeverBlocksOnStalledReceiver(t *testing.T) {
	l, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(0)
	dst, _ := l.Endpoint(1)
	const n = 1024
	payload := bytes.Repeat([]byte{0xAB}, 64<<10) // 64 MiB total, beyond any default socket buffer
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := src.Send(&wire.Packet{
				Kind: wire.PktData, Src: 0, Dst: 1, Seq: uint64(i + 1), Payload: payload,
			}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Send blocked against a receiver that was not draining")
	}
	for i := 0; i < n; i++ {
		if p := dst.BlockingRecv(30 * time.Second); p == nil {
			t.Fatalf("drain stalled at packet %d/%d", i, n)
		}
	}
}

// TestQueueGrowthToStalledPeer pins how a send queue grows past the
// buffer pool's largest class. The peer is a raw listener that accepts
// the stream (with a tiny receive buffer) and never reads, so the queue
// only grows; above bufpool.MaxPooled, Get would fall back to an
// exact-size allocation, and a queue grown that way re-allocates and
// re-copies itself on every frame. Geometric growth keeps the mallocs
// logarithmic in the queue size.
func TestQueueGrowthToStalledPeer(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
		}); err != nil {
			return err
		}
		return serr
	}}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	ep, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Peers: map[int]string{1: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Dial(1); err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	defer peer.Close()

	const frame, frames = 128 << 10, 128 // 16 MiB, far past the 4 MiB top class
	p := &wire.Packet{Kind: wire.PktData, Src: 0, Dst: 1, Payload: make([]byte, frame)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < frames; i++ {
		p.Seq = uint64(i + 1)
		if err := ep.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	// Logarithmic: one doubling series for the buffer, one for its frame
	// index, the poller's first-use slices, and pool classes a GC emptied
	// mid-run (14 with the GC off, under 50 with it on). Exact-size
	// growth past the top class costs ~190 here.
	const budget = 80
	n := m1.Mallocs - m0.Mallocs
	t.Logf("%d mallocs", n)
	if n > budget {
		t.Errorf("queueing %d frames of %d KiB to a stalled peer cost %d mallocs, want <= %d (logarithmic growth)", frames, frame>>10, n, budget)
	}
	// Let the stream fail instead of waiting out Close's drain timeout.
	peer.Close()
	ep.KillConn(1)
}

// TestSendCapturesPayloadBeforeReturn: the engine may complete an eager
// request — telling the application its buffer is reusable — the moment
// Send returns, so Send must capture the payload bytes before returning.
// An app that scribbles over the buffer right after Send must not
// corrupt what arrives. The 1 MiB case sends faster than one write
// drains, so its queue grows through the buffer pool frame after frame
// while earlier batches are returned to it.
func TestSendCapturesPayloadBeforeReturn(t *testing.T) {
	t.Run("32KiB", func(t *testing.T) { sendCapturesPayload(t, 32<<10, 100) })
	t.Run("1MiB", func(t *testing.T) { sendCapturesPayload(t, 1<<20, 24) })
}

func sendCapturesPayload(t *testing.T, size, n int) {
	l, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(0)
	dst, _ := l.Endpoint(1)
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := src.Send(&wire.Packet{
			Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i + 1), Payload: buf,
		}); err != nil {
			t.Fatal(err)
		}
		for j := range buf { // legal reuse the moment Send returned
			buf[j] = 0xFF
		}
	}
	for i := 0; i < n; i++ {
		p := dst.BlockingRecv(30 * time.Second)
		if p == nil {
			t.Fatalf("packet %d lost", i)
		}
		if p.Seq != uint64(i+1) || len(p.Payload) != size {
			t.Fatalf("packet %d arrived as seq %d carrying %d bytes, want %d", i+1, p.Seq, len(p.Payload), size)
		}
		want := byte(p.Seq - 1)
		for j, b := range p.Payload {
			if b != want {
				t.Fatalf("packet seq %d byte %d corrupted to %#x by post-Send buffer reuse", p.Seq, j, b)
			}
		}
		fabric.ReleasePacket(p)
	}
}

// TestSelfSendCapturesPayload: the capture-before-return rule holds on
// the self-delivery path too — it skips the codec serialization, so it
// must copy explicitly.
func TestSelfSendCapturesPayload(t *testing.T) {
	l, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ep, _ := l.Endpoint(0)
	buf := []byte("before")
	if err := ep.Send(&wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 0, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "after!") // legal reuse the moment Send returned
	p := ep.BlockingRecv(30 * time.Second)
	if p == nil {
		t.Fatal("self-send lost")
	}
	if string(p.Payload) != "before" {
		t.Fatalf("self-delivered payload aliased the caller's buffer: %q", p.Payload)
	}
}

// TestSendRefusesOversizedPayload: a payload the codec cannot frame is a
// synchronous Send error, and the refusal leaves the connection healthy.
func TestSendRefusesOversizedPayload(t *testing.T) {
	l, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(0)
	dst, _ := l.Endpoint(1)
	if err := src.Send(&wire.Packet{
		Kind: wire.PktData, Src: 0, Dst: 1, Payload: make([]byte, fabric.MaxPayloadBytes+1),
	}); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := src.Send(&wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 1, Payload: []byte("ok")}); err != nil {
		t.Fatalf("send after refusal: %v", err)
	}
	if p := dst.BlockingRecv(30 * time.Second); p == nil || string(p.Payload) != "ok" {
		t.Fatalf("connection damaged by refused send: %+v", p)
	}
}

// TestCloseDrainsQueuedSends: a packet accepted by Send before Close must
// still reach the peer — Close drains the writer queues into the sockets
// before tearing the streams down. Both ranks' shutdown protocols depend
// on this: the closing side's last ack completes the peer's final
// request, and discarding it strands the peer in a wait forever.
func TestCloseDrainsQueuedSends(t *testing.T) {
	for round := 0; round < 20; round++ {
		ep0, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		ep1, err := tcpfab.New(tcpfab.Config{
			Self: 1, Nodes: 2,
			Peers: map[int]string{0: ep0.Addr().String()},
		})
		if err != nil {
			t.Fatal(err)
		}
		const n = 50
		for i := 1; i <= n; i++ {
			if err := ep1.Send(&wire.Packet{
				Kind: wire.PktEager, Src: 1, Dst: 0, Seq: uint64(i),
				Payload: bytes.Repeat([]byte{byte(i)}, 4<<10),
			}); err != nil {
				t.Fatalf("round %d: send %d: %v", round, i, err)
			}
		}
		ep1.Close() // immediately: the queue may not have hit the socket yet
		for i := 1; i <= n; i++ {
			if p := ep0.BlockingRecv(30 * time.Second); p == nil {
				t.Fatalf("round %d: packet %d/%d discarded by Close instead of drained", round, i, n)
			}
		}
		ep0.Close()
	}
}

// TestSourceAuthenticity: the receiving endpoint stamps packets with the
// stream's handshake identity, so a frame cannot impersonate another rank.
func TestSourceAuthenticity(t *testing.T) {
	l, err := tcpfab.NewLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(2)
	dst, _ := l.Endpoint(0)
	src.Send(&wire.Packet{Kind: wire.PktEager, Src: 1 /* lie */, Dst: 0, Payload: []byte("x")})
	p := dst.BlockingRecv(30 * time.Second)
	if p == nil {
		t.Fatal("packet lost")
	}
	if p.Src != 2 {
		t.Fatalf("packet claims src %d, stream identity is 2", p.Src)
	}
}

// TestRejectsBadHandshake: garbage connections are dropped without
// disturbing the endpoint.
func TestRejectsBadHandshake(t *testing.T) {
	ep, err := tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	c, err := net.Dial("tcp", ep.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("GET / HTTP/1.1\r\n\r\n padding padding"))
	// The endpoint must drop the stream: read returns EOF reasonably soon.
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Error("endpoint kept a garbage connection open and spoke on it")
	}
	c.Close()
	if p := testenv.PollOne(ep)(); p != nil {
		t.Errorf("garbage connection injected a packet: %+v", p)
	}
}
