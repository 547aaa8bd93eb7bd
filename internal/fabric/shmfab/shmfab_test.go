package shmfab_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/conformance"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/topo"
	"pioman/internal/wire"
)

func TestEndpointConformance(t *testing.T) {
	conformance.RunEndpoint(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := shmfab.NewLocal(nodes, t.TempDir())
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// shmWorld builds a 2-node engine world whose rail runs over real mmap'd
// shared-memory rings.
func shmWorld(t *testing.T) *mpi.World {
	t.Helper()
	l, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	rail := nic.ShmParams()
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
	conformance.RunWorld(t, shmWorld)
}

// TestChaosSoakConformance drives the engine-level soak workload over
// real shared-memory rings wrapped in a seeded Chaos injecting frame
// reordering and latency — the disorder the portable contract permits.
// (Drop/duplicate/corrupt would violate the delivery contract the rings
// guarantee; udpfab's soak injects those below its reliability
// sublayer instead.)
func TestChaosSoakConformance(t *testing.T) {
	seed := conformance.ChaosSeed(t)
	conformance.RunChaosSoak(t, func(t *testing.T) *mpi.World {
		l, err := shmfab.NewLocal(2, t.TempDir())
		if err != nil {
			t.Fatalf("NewLocal: %v", err)
		}
		chaotic := conformance.NewChaos(l, conformance.ChaosConfig{
			Seed:         seed,
			Reorder:      0.15,
			ReorderDelay: time.Millisecond,
			Latency:      200 * time.Microsecond,
		})
		rail := nic.ShmParams()
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
		l, err := shmfab.NewLocal(nodes, t.TempDir())
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	}, true) // SPSC rings: strict per-sender FIFO
}

// TestRailFailoverConformance runs the two-rail loss-injection case: the
// secondary rail accepts and drops every frame, and rendezvous transfers
// must still complete over the surviving shared-memory rail.
func TestRailFailoverConformance(t *testing.T) {
	conformance.RunRailFailover(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := shmfab.NewLocal(nodes, t.TempDir())
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestSelfHealingConformance runs the acked-replay regression: the
// shared-memory rail is killed right after the rendezvous was submitted,
// and the transfer must complete via engine-level replay once it
// revives.
func TestSelfHealingConformance(t *testing.T) {
	conformance.RunSelfHealing(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := shmfab.NewLocal(nodes, t.TempDir())
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestSelfHealSoakConformance runs the rail death-and-recovery soak:
// mid-run kill and revival of the secondary shared-memory rail,
// probation, probe-driven re-admission, and post-recovery traffic on the
// healed rail, whose declared stripe weight must survive unchanged.
func TestSelfHealSoakConformance(t *testing.T) {
	conformance.RunSelfHealSoak(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := shmfab.NewLocal(nodes, t.TempDir())
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestPeerDeathConformance runs the bounded-failure contract: one rank
// of a three-rank shared-memory world dies mid-rendezvous, pending
// requests toward it must complete with core.ErrPeerDead within the
// PeerDeadline and the survivors keep communicating.
func TestPeerDeathConformance(t *testing.T) {
	conformance.RunPeerDeath(t, func(t *testing.T, nodes int) fabric.Fabric {
		l, err := shmfab.NewLocal(nodes, t.TempDir())
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
		l, err := shmfab.NewLocal(nodes, t.TempDir())
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", nodes, err)
		}
		return l
	})
}

// TestWorldShmRailReplacesSimulated pins the wiring the ROADMAP asked
// for: an in-process world keeps its simulated MX inter-node rail while
// the "shm" rail key swaps the simulated intra-node channel for real
// shmfab rings. Self-directed traffic prefers the shm rail (the engine's
// rail selection), so this exchange crosses genuine mmap'd memory.
func TestWorldShmRailReplacesSimulated(t *testing.T) {
	l, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpi.DefaultMultithreaded(2)
	cfg.Machine = topo.Machine{Sockets: 1, CoresPerSocket: 2}
	cfg.SHM = nic.ShmParams()
	cfg.Fabrics = map[string]fabric.Fabric{"shm": l}
	w := mpi.NewWorld(cfg)
	defer w.Close()
	msg := bytes.Repeat([]byte{0x5A}, 8<<10)
	w.RunAll(func(p *mpi.Proc) {
		// Self traffic rides the shm rail; cross-rank the simulated MX.
		self := p.Rank()
		r := p.Irecv(self, 42, make([]byte, len(msg)))
		p.Send(self, 42, msg)
		p.WaitRecv(r)
		peer := 1 - self
		if self == 0 {
			p.Send(peer, 7, msg)
		} else {
			buf := make([]byte, len(msg))
			if n, _ := p.Recv(peer, 7, buf); n != len(msg) || !bytes.Equal(buf, msg) {
				t.Errorf("cross-rank message corrupted (n=%d)", n)
			}
		}
	})
}

// TestStrictFIFO pins the stronger ordering shmfab provides beyond the
// portable contract: one sender's ring delivers in exact send order.
func TestStrictFIFO(t *testing.T) {
	l, err := shmfab.NewLocal(2, t.TempDir())
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
			size = 32 << 10 // spans multiple slots
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
			t.Fatalf("ring dried up at packet %d", i)
		}
		if p.Seq != uint64(i) {
			t.Fatalf("packet %d arrived as %d: ring reordered", i, p.Seq)
		}
	}
}

// TestFramesStraddleSlots streams frames of every length residue through
// a ring of tiny slots. The ring fills at once, so the pump packs frames
// back to back and their boundaries — length prefixes included — land
// at every offset of a slot; each frame must be reassembled intact and
// in order.
func TestFramesStraddleSlots(t *testing.T) {
	dir := t.TempDir()
	open := func(rank int) *shmfab.Endpoint {
		ep, err := shmfab.New(shmfab.WithGeometry(shmfab.Config{Self: rank, Nodes: 2, Dir: dir}, 8, 64))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	src, dst := open(0), open(1)
	payload := func(seq int) []byte {
		b := make([]byte, seq%131)
		for i := range b {
			b[i] = byte(seq*7 + i)
		}
		return b
	}
	const n = 400
	for i := 1; i <= n; i++ {
		if err := src.Send(&wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i), Payload: payload(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 1; i <= n; i++ {
		p := dst.BlockingRecv(30 * time.Second)
		if p == nil {
			t.Fatalf("ring dried up at frame %d", i)
		}
		if p.Seq != uint64(i) || !bytes.Equal(p.Payload, payload(i)) {
			t.Fatalf("frame %d arrived as seq %d with a corrupted payload", i, p.Seq)
		}
		fabric.ReleasePacket(p)
	}
}

// TestCreationRace drives both sides of every ring pair into creating the
// same files at once, in both orders — the mmap analog of tcpfab's
// simultaneous connect. Whoever loses the O_EXCL race must attach to the
// winner's file and the pair must still deliver in both directions.
func TestCreationRace(t *testing.T) {
	const rounds = 25
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		var eps [2]*shmfab.Endpoint
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		for rank := 0; rank < 2; rank++ {
			go func(rank int) {
				defer wg.Done()
				<-start
				eps[rank], errs[rank] = shmfab.New(shmfab.Config{Self: rank, Nodes: 2, Dir: dir})
			}(rank)
		}
		close(start)
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("round %d: rank %d lost the creation race fatally: %v", round, rank, err)
			}
		}
		for rank, ep := range eps {
			if err := ep.Send(&wire.Packet{
				Kind: wire.PktEager, Src: rank, Dst: 1 - rank, Seq: uint64(round + 1),
				Payload: []byte{byte(rank)},
			}); err != nil {
				t.Fatalf("round %d: send from %d: %v", round, rank, err)
			}
		}
		for rank, ep := range eps {
			p := ep.BlockingRecv(30 * time.Second)
			if p == nil {
				t.Fatalf("round %d: rank %d lost a packet to the creation race", round, rank)
			}
			if want := byte(1 - rank); len(p.Payload) != 1 || p.Payload[0] != want {
				t.Fatalf("round %d: rank %d received %v, want [%d]", round, rank, p.Payload, want)
			}
		}
		eps[0].Close()
		eps[1].Close()
	}
}

// TestSendNeverBlocksOnStalledReceiver pins the Endpoint contract that
// Send buffers rather than blocking on the receiver making progress: a
// sender must be able to queue far more than the ring holds (1 MiB per
// direction by default) while the receiver polls nothing at all.
func TestSendNeverBlocksOnStalledReceiver(t *testing.T) {
	l, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(0)
	dst, _ := l.Endpoint(1)
	const n = 256
	payload := bytes.Repeat([]byte{0xAB}, 64<<10) // 16 MiB total, 16× the ring
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

// TestFrameLargerThanRing: a single frame bigger than the whole ring must
// stream through as the consumer drains — fixed slots bound the window,
// not the message size.
func TestFrameLargerThanRing(t *testing.T) {
	l, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(0)
	dst, _ := l.Endpoint(1)
	payload := make([]byte, 4<<20) // 4 MiB, 4× the default ring window
	for i := range payload {
		payload[i] = byte(i*3 + 1)
	}
	if err := src.Send(&wire.Packet{Kind: wire.PktData, Src: 0, Dst: 1, Seq: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	p := dst.BlockingRecv(30 * time.Second)
	if p == nil {
		t.Fatal("oversized frame never arrived")
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatal("oversized frame corrupted in transit")
	}
}

// TestSendCapturesPayloadBeforeReturn: the engine may complete an eager
// request — telling the application its buffer is reusable — the moment
// Send returns, so Send must capture the payload bytes before returning.
func TestSendCapturesPayloadBeforeReturn(t *testing.T) {
	l, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src, _ := l.Endpoint(0)
	dst, _ := l.Endpoint(1)
	const n = 100
	buf := make([]byte, 32<<10)
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
		want := byte(p.Seq - 1)
		for j, b := range p.Payload {
			if b != want {
				t.Fatalf("packet seq %d byte %d corrupted to %#x by post-Send buffer reuse", p.Seq, j, b)
			}
		}
	}
}

// TestSelfSendCapturesPayload: the capture-before-return rule holds on
// the self-delivery path too — it skips the ring serialization, so it
// must copy explicitly (the engine routes rank-local traffic here when
// the shm rail serves an in-process world).
func TestSelfSendCapturesPayload(t *testing.T) {
	l, err := shmfab.NewLocal(2, t.TempDir())
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

// TestCloseDrainsQueuedSends: a packet accepted by Send before Close must
// still reach the peer — Close drains the pump queues into the rings
// before unmapping, and the receiver's own mapping outlives the sender.
func TestCloseDrainsQueuedSends(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		ep0, err := shmfab.New(shmfab.Config{Self: 0, Nodes: 2, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ep1, err := shmfab.New(shmfab.Config{Self: 1, Nodes: 2, Dir: dir})
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
		ep1.Close() // immediately: frames may still sit in the pump queue
		for i := 1; i <= n; i++ {
			if p := ep0.BlockingRecv(30 * time.Second); p == nil {
				t.Fatalf("round %d: packet %d/%d discarded by Close instead of drained", round, i, n)
			}
		}
		if lost := ep1.LostFrames(); lost != 0 {
			t.Fatalf("round %d: %d frames counted lost on a clean drain", round, lost)
		}
		ep0.Close()
	}
}

// TestSendRefusesOversizedPayload: a payload the codec cannot frame is a
// synchronous Send error, and the refusal leaves the ring healthy.
func TestSendRefusesOversizedPayload(t *testing.T) {
	l, err := shmfab.NewLocal(2, t.TempDir())
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
		t.Fatalf("ring damaged by refused send: %+v", p)
	}
}

// TestSourceAuthenticity: packets are stamped with the ring's producer
// identity, so a frame cannot impersonate another rank.
func TestSourceAuthenticity(t *testing.T) {
	l, err := shmfab.NewLocal(3, t.TempDir())
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
		t.Fatalf("packet claims src %d, ring identity is 2", p.Src)
	}
}

// TestGeometryMismatchRejected: the two sides of a ring must agree on its
// geometry; an endpoint configured differently fails to attach instead of
// silently corrupting the stream.
func TestGeometryMismatchRejected(t *testing.T) {
	// Attacher smaller than creator: caught by header validation.
	dir := t.TempDir()
	ep0, err := shmfab.New(shmfab.Config{Self: 0, Nodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	if _, err := shmfab.New(shmfab.WithGeometry(shmfab.Config{Self: 1, Nodes: 2, Dir: dir}, 16, 1024)); err == nil {
		t.Fatal("endpoint with mismatched ring geometry attached anyway")
	}

	// Attacher larger than creator: the file never reaches the expected
	// size, which must be diagnosed as a geometry mismatch promptly —
	// not misreported as a dead creator after the full attach timeout.
	dir2 := t.TempDir()
	small, err := shmfab.New(shmfab.WithGeometry(shmfab.Config{Self: 0, Nodes: 2, Dir: dir2}, 16, 1024))
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	start := time.Now()
	_, err = shmfab.New(shmfab.Config{Self: 1, Nodes: 2, Dir: dir2}) // defaults: larger
	if err == nil {
		t.Fatal("endpoint with larger ring geometry attached anyway")
	}
	if !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("larger-attacher mismatch misdiagnosed: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("geometry mismatch took %v to diagnose (burned the attach timeout)", d)
	}
}

// TestDuplicateRankRejected: a second attachment claiming an
// already-held rank would put two producers on SPSC rings (silent stream
// desync); it must fail loudly at construction instead.
func TestDuplicateRankRejected(t *testing.T) {
	dir := t.TempDir()
	ep0, err := shmfab.New(shmfab.Config{Self: 0, Nodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	if _, err := shmfab.New(shmfab.Config{Self: 0, Nodes: 2, Dir: dir}); err == nil {
		t.Fatal("second endpoint attached as an already-claimed rank")
	}
	// A different rank still attaches fine.
	ep1, err := shmfab.New(shmfab.Config{Self: 1, Nodes: 2, Dir: dir})
	if err != nil {
		t.Fatalf("legitimate rank refused after a duplicate was rejected: %v", err)
	}
	ep1.Close()
}

// TestAbandonedInitTimesOut: a ring file left behind by a creator that
// died before initializing it (size zero, no magic) must fail attachment
// with a clear error, not hang forever.
func TestAbandonedInitTimesOut(t *testing.T) {
	dir := t.TempDir()
	// Fake a dead creator: rank 1's inbound ring exists but is empty.
	if err := os.WriteFile(filepath.Join(dir, "ring-0-to-1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := shmfab.New(shmfab.WithAttachTimeout(shmfab.Config{Self: 1, Nodes: 2, Dir: dir}, 300*time.Millisecond))
	if err == nil {
		t.Fatal("attached to an abandoned ring file")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("attachment hung %v before failing", d)
	}
}

// TestSendEncodedInPlace pins shmfab's fabric.FrameEncoder: a frame that
// fits one slot is built in the slot and arrives like a sent one, while
// a self-send, a frame past one slot, a full ring, bytes the pump still
// holds and a closed endpoint all report false — and a caller that then
// falls back to Send keeps its frames in order.
func TestSendEncodedInPlace(t *testing.T) {
	dir := t.TempDir()
	open := func(rank int) *shmfab.Endpoint {
		ep, err := shmfab.New(shmfab.WithGeometry(shmfab.Config{Self: rank, Nodes: 2, Dir: dir}, 4, 256))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	src, dst := open(0), open(1)
	var enc fabric.FrameEncoder = src
	body := func(seq int) []byte { return bytes.Repeat([]byte{byte(seq)}, 100) }
	// send builds frame seq in place when it can, and otherwise sends
	// it, as nic.Driver.SendAggr does; it reports which it did.
	send := func(seq int) bool {
		p := &wire.Packet{Kind: wire.PktAggr, Src: 0, Dst: 1, Tag: -1, Seq: uint64(seq)}
		if enc.SendEncoded(p, 100, func(b []byte) { copy(b, body(seq)) }) {
			return true
		}
		p.Payload = body(seq)
		if err := src.Send(p); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		return false
	}
	if enc.SendEncoded(&wire.Packet{Kind: wire.PktAggr, Src: 0, Dst: 0}, 8, func([]byte) {}) {
		t.Error("a self-send was built in place")
	}
	if enc.SendEncoded(&wire.Packet{Kind: wire.PktAggr, Src: 0, Dst: 1}, 256, func([]byte) {}) {
		t.Error("a frame past one slot was built in place")
	}
	// Four slots: four frames in place, then a full ring sends the fifth
	// to the pump, and the sixth must queue behind it.
	for seq := 1; seq <= 6; seq++ {
		if inPlace := send(seq); inPlace != (seq <= 4) {
			t.Fatalf("frame %d built in place: %v", seq, inPlace)
		}
	}
	for seq := 1; seq <= 6; seq++ {
		p := dst.BlockingRecv(10 * time.Second)
		if p == nil {
			t.Fatalf("frame %d never arrived", seq)
		}
		if p.Kind != wire.PktAggr || p.Seq != uint64(seq) || p.Src != 0 || !bytes.Equal(p.Payload, body(seq)) {
			t.Fatalf("frame %d arrived as kind %v seq %d from %d, payload intact %v", seq, p.Kind, p.Seq, p.Src, bytes.Equal(p.Payload, body(seq)))
		}
		fabric.ReleasePacket(p)
	}
	src.Close()
	if enc.SendEncoded(&wire.Packet{Kind: wire.PktAggr, Src: 0, Dst: 1}, 8, func([]byte) {}) {
		t.Error("a closed endpoint built a frame in place")
	}
}
