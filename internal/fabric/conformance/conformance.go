// Package conformance is the shared contract test for fabric backends.
// Every backend (simfab, tcpfab, and whatever comes next — shm rings,
// multirail bundles) runs the same two suites:
//
//   - RunEndpoint exercises the raw fabric.Endpoint contract: reliable
//     complete delivery, field fidelity, blocking reception, shutdown.
//   - RunWorld drives the full engine stack (Marcel + PIOMan +
//     NewMadeleine via internal/mpi) over the backend and pins down the
//     protocol-level behaviours the paper's engine guarantees: eager and
//     rendezvous exchanges, RTS/CTS correlation under concurrency,
//     posted-order matching, any-source receives, clean shutdown.
//
// A backend that passes both suites is a drop-in rail transport.
package conformance

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/telemetry"
	"pioman/internal/wire"
)

// OpenFabric builds a fresh n-node fabric for one subtest. Cleanup is the
// caller's: register t.Cleanup inside if the backend needs teardown beyond
// Fabric.Close (the suite always calls Close).
type OpenFabric func(t *testing.T, nodes int) fabric.Fabric

// recvDeadline bounds every wait in the suite: generous enough for a
// loaded -race CI box, far below any test timeout.
const recvDeadline = 30 * time.Second

// RunEndpoint runs the endpoint-level contract suite against open.
func RunEndpoint(t *testing.T, open OpenFabric) {
	t.Run("Identity", func(t *testing.T) {
		f := open(t, 3)
		defer f.Close()
		if f.Nodes() != 3 {
			t.Fatalf("Nodes() = %d, want 3", f.Nodes())
		}
		for rank := 0; rank < 3; rank++ {
			ep, err := f.Endpoint(rank)
			if err != nil {
				t.Fatalf("Endpoint(%d): %v", rank, err)
			}
			if ep.Self() != rank || ep.Nodes() != 3 {
				t.Fatalf("endpoint %d reports self=%d nodes=%d", rank, ep.Self(), ep.Nodes())
			}
		}
		if _, err := f.Endpoint(3); err == nil {
			t.Error("Endpoint(out of range) did not error")
		}
		if _, err := f.Endpoint(-1); err == nil {
			t.Error("Endpoint(-1) did not error")
		}
	})

	t.Run("DeliverAllKinds", func(t *testing.T) {
		f := open(t, 2)
		defer f.Close()
		src, dst := mustEp(t, f, 0), mustEp(t, f, 1)
		kinds := []wire.PacketKind{
			wire.PktEager, wire.PktRTS, wire.PktCTS, wire.PktData, wire.PktCtrl, wire.PktAggr,
		}
		for i, k := range kinds {
			payload := bytes.Repeat([]byte{byte(i + 1)}, 64+i)
			want := &wire.Packet{
				Kind: k, Src: 0, Dst: 1, Tag: -5 + i, Seq: uint64(i + 1),
				MsgID: uint64(1000 + i), Offset: 7 * i, Payload: payload,
			}
			if err := src.Send(want); err != nil {
				t.Fatalf("send %v: %v", k, err)
			}
			got := recvOne(t, dst)
			if got.Kind != want.Kind || got.Src != 0 || got.Dst != 1 ||
				got.Tag != want.Tag || got.Seq != want.Seq ||
				got.MsgID != want.MsgID || got.Offset != want.Offset ||
				!bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("kind %v arrived mutated:\nwant %+v\ngot  %+v", k, want, got)
			}
		}
	})

	t.Run("CompleteDelivery", func(t *testing.T) {
		// The portable ordering contract: nothing lost, nothing
		// duplicated, every sequence number accounted for. Total order
		// is deliberately NOT asserted — the simulator's fragmenting
		// wire may interleave, and receivers reorder by Seq.
		f := open(t, 2)
		defer f.Close()
		src, dst := mustEp(t, f, 0), mustEp(t, f, 1)
		const n = 300
		go func() {
			for i := 1; i <= n; i++ {
				size := 16
				if i%7 == 0 {
					size = 24 << 10 // bulk packets provoke interleaving
				}
				src.Send(&wire.Packet{
					Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i),
					Payload: bytes.Repeat([]byte{byte(i)}, size),
				})
			}
		}()
		seen := make(map[uint64]bool, n)
		for len(seen) < n {
			p := recvOne(t, dst)
			if seen[p.Seq] {
				t.Fatalf("sequence %d delivered twice", p.Seq)
			}
			if p.Seq < 1 || p.Seq > n {
				t.Fatalf("unknown sequence %d", p.Seq)
			}
			if len(p.Payload) > 0 && p.Payload[0] != byte(p.Seq) {
				t.Fatalf("sequence %d payload corrupted", p.Seq)
			}
			seen[p.Seq] = true
		}
	})

	t.Run("ReversedOpenOrder", func(t *testing.T) {
		// Endpoints must come up usable in any order. Backends that
		// build per-endpoint resources lazily — shmfab creates its mmap'd
		// ring files at attach time, the analog of tcpfab's simultaneous
		// connect — must let whichever side arrives first create the
		// shared state and the latecomer adopt it, in both directions.
		f := open(t, 2)
		defer f.Close()
		later := mustEp(t, f, 1) // the "second" rank attaches first
		first := mustEp(t, f, 0)
		if err := first.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 0, Dst: 1, Tag: 1, Payload: []byte("fwd")}); err != nil {
			t.Fatalf("send toward the earlier-opened endpoint: %v", err)
		}
		if p := recvOne(t, later); p.Tag != 1 || string(p.Payload) != "fwd" {
			t.Fatalf("earlier-opened endpoint received %+v", p)
		}
		if err := later.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 1, Dst: 0, Tag: 2, Payload: []byte("rev")}); err != nil {
			t.Fatalf("send toward the later-opened endpoint: %v", err)
		}
		if p := recvOne(t, first); p.Tag != 2 || string(p.Payload) != "rev" {
			t.Fatalf("later-opened endpoint received %+v", p)
		}
	})

	t.Run("SelfLoopback", func(t *testing.T) {
		f := open(t, 2)
		defer f.Close()
		ep := mustEp(t, f, 0)
		ep.Send(&wire.Packet{Kind: wire.PktCtrl, Src: 0, Dst: 0, Tag: 9, Payload: []byte("self")})
		p := recvOne(t, ep)
		if p.Tag != 9 || string(p.Payload) != "self" {
			t.Fatalf("loopback mutated: %+v", p)
		}
	})

	t.Run("ReleaseRecycles", func(t *testing.T) {
		// The inbound-buffer ownership rule (docs/FABRIC.md): packets a
		// backend delivers may be handed back through
		// fabric.ReleasePacket once the consumer has copied what it
		// needs, and the recycled buffers must never leak one packet's
		// bytes into another. A backend that aliases delivered payloads
		// with its own internal state, or double-delivers a released
		// struct, corrupts the patterned payloads here.
		f := open(t, 2)
		defer f.Close()
		src, dst := mustEp(t, f, 0), mustEp(t, f, 1)
		sizes := []int{0, 1, 64, 512, 4 << 10, 60 << 10}
		for round := 0; round < 40; round++ {
			size := sizes[round%len(sizes)]
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i*3 + round)
			}
			if err := src.Send(&wire.Packet{
				Kind: wire.PktEager, Src: 0, Dst: 1, Tag: round,
				Seq: uint64(round + 1), Payload: payload,
			}); err != nil {
				t.Fatalf("send round %d: %v", round, err)
			}
			got := recvOne(t, dst)
			if got.Tag != round || got.Seq != uint64(round+1) {
				t.Fatalf("round %d: header mutated: %+v", round, got)
			}
			if !bytes.Equal(got.Payload, payload) {
				t.Fatalf("round %d: payload corrupted (recycled buffer reused while aliased?)", round)
			}
			// Hand the buffers back; the next rounds must still arrive
			// intact even though they may reuse this round's memory.
			fabric.ReleasePacket(got)
		}
	})

	t.Run("PollBatchDrains", func(t *testing.T) {
		// PollBatch hands every packet out exactly once, split across
		// calls at whatever capacity the caller offers (here 3,
		// deliberately smaller than the traffic), with a zero-capacity
		// buffer a harmless no-op. Completeness is what this case pins;
		// ordering under concurrent senders is RunBatchOrdering's.
		f := open(t, 2)
		defer f.Close()
		src, dst := mustEp(t, f, 0), mustEp(t, f, 1)
		const n = 7
		for i := 1; i <= n; i++ {
			if err := src.Send(&wire.Packet{
				Kind: wire.PktEager, Src: 0, Dst: 1, Tag: i,
				Seq: uint64(i), Payload: []byte{byte(i)},
			}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		var got []*wire.Packet
		batch := make([]*wire.Packet, 3)
		deadline := time.Now().Add(recvDeadline)
		for len(got) < n {
			if k := dst.PollBatch(batch); k > 0 {
				got = append(got, batch[:k]...)
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("PollBatch drained %d of %d frames within the suite deadline", len(got), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
		seen := make(map[uint64]bool, n)
		for _, p := range got {
			if p.Seq < 1 || p.Seq > n || seen[p.Seq] {
				t.Fatalf("PollBatch run lost or duplicated frames: seq %d", p.Seq)
			}
			seen[p.Seq] = true
			fabric.ReleasePacket(p)
		}
		if k := dst.PollBatch(batch[:0]); k != 0 {
			t.Errorf("PollBatch into an empty buffer returned %d", k)
		}
	})

	t.Run("BlockingRecvTimeout", func(t *testing.T) {
		f := open(t, 2)
		defer f.Close()
		ep := mustEp(t, f, 1)
		start := time.Now()
		if p := ep.BlockingRecv(30 * time.Millisecond); p != nil {
			t.Fatalf("idle BlockingRecv returned %+v", p)
		}
		if d := time.Since(start); d < 20*time.Millisecond {
			t.Fatalf("BlockingRecv returned after %v, before its timeout", d)
		}
	})

	// Goroutines parked in BlockingRecv wake on arrival — every one of
	// them. With two waiters and two back-to-back sends a backend may
	// collapse the arrivals into one wake-up edge, but both waiters must
	// still come back with a packet long before their timeout, rather
	// than one sleeping it out beside a non-empty queue.
	for i, name := range []string{"BlockingRecvWakes", "BlockingRecvWakesEveryWaiter"} {
		waiters := i + 1
		t.Run(name, func(t *testing.T) {
			f := open(t, 2)
			defer f.Close()
			src, dst := mustEp(t, f, 0), mustEp(t, f, 1)
			got := make(chan *wire.Packet, waiters)
			for i := 0; i < waiters; i++ {
				go func() { got <- dst.BlockingRecv(recvDeadline) }()
			}
			time.Sleep(10 * time.Millisecond)
			for i := 1; i <= waiters; i++ {
				src.Send(&wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i), Payload: []byte("wake")})
			}
			seen := make(map[uint64]bool, waiters)
			for i := 0; i < waiters; i++ {
				select {
				case p := <-got:
					if p == nil || string(p.Payload) != "wake" || seen[p.Seq] {
						t.Fatalf("blocked receiver %d woke with %+v", i, p)
					}
					seen[p.Seq] = true
				case <-time.After(recvDeadline / 2):
					t.Fatalf("%d of %d blocked receivers woke with a packet queued for each", i, waiters)
				}
			}
		})
	}

	t.Run("CloseSemantics", func(t *testing.T) {
		f := open(t, 2)
		ep := mustEp(t, f, 1)
		woke := make(chan *wire.Packet, 1)
		go func() { woke <- ep.BlockingRecv(recvDeadline) }()
		time.Sleep(10 * time.Millisecond)
		if err := ep.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		select {
		case p := <-woke:
			if p != nil {
				t.Fatalf("receiver woke from Close with a packet: %+v", p)
			}
		case <-time.After(recvDeadline):
			t.Fatal("Close did not wake the blocked receiver")
		}
		if err := ep.Send(&wire.Packet{Kind: wire.PktEager, Src: 1, Dst: 0}); err == nil {
			t.Error("Send after Close did not error")
		}
		if err := ep.Close(); err != nil {
			t.Errorf("second Close errored: %v", err)
		}
		f.Close()
	})
}

// OpenWorld builds a fresh 2-node engine world over the backend under
// test. The suite closes it.
type OpenWorld func(t *testing.T) *mpi.World

// RunWorld runs the full-stack protocol suite against worlds from open.
func RunWorld(t *testing.T, open OpenWorld) {
	t.Run("EagerExchange", func(t *testing.T) {
		w := open(t)
		defer closeWorld(t, w)
		msg := patterned(1 << 10) // well under every rail's threshold
		w.RunAll(func(p *mpi.Proc) {
			if p.Rank() == 0 {
				p.Send(1, 7, msg)
				buf := make([]byte, len(msg))
				n, from := p.Recv(1, 8, buf)
				if n != len(msg) || from != 1 || !bytes.Equal(buf, msg) {
					t.Errorf("echo mutated: n=%d from=%d", n, from)
				}
			} else {
				buf := make([]byte, len(msg))
				p.Recv(0, 7, buf)
				p.Send(0, 8, buf)
			}
		})
	})

	t.Run("RendezvousExchange", func(t *testing.T) {
		w := open(t)
		defer closeWorld(t, w)
		msg := patterned(256 << 10) // above every rail's eager threshold
		w.RunAll(func(p *mpi.Proc) {
			if p.Rank() == 0 {
				r := p.Isend(1, 7, msg)
				if !r.Rendezvous() {
					t.Errorf("256 KiB send did not pick the rendezvous protocol")
				}
				p.WaitSend(r)
				buf := make([]byte, len(msg))
				p.Recv(1, 8, buf)
				if !bytes.Equal(buf, msg) {
					t.Errorf("rendezvous echo corrupted")
				}
			} else {
				buf := make([]byte, len(msg))
				p.Recv(0, 7, buf)
				p.Send(0, 8, buf)
			}
		})
	})

	t.Run("PostedOrderMatching", func(t *testing.T) {
		// Same (src, tag) messages of mixed protocols must match posted
		// receives in send order, even when the transport interleaves —
		// this is the engine's seq-reordering guarantee riding on the
		// fabric's weaker contract.
		w := open(t)
		defer closeWorld(t, w)
		sizes := []int{100, 200 << 10, 1000, 64 << 10, 50} // eager, rdv, eager, rdv, eager
		w.RunAll(func(p *mpi.Proc) {
			const tag = 3
			if p.Rank() == 0 {
				for i, n := range sizes {
					p.Send(1, tag, patternedAt(n, byte(i)))
				}
			} else {
				for i, n := range sizes {
					buf := make([]byte, n)
					got, _ := p.Recv(0, tag, buf)
					if got != n {
						t.Errorf("message %d: %d bytes, want %d", i, got, n)
						continue
					}
					if !bytes.Equal(buf, patternedAt(n, byte(i))) {
						t.Errorf("message %d (%d B) out of order or corrupted", i, n)
					}
				}
			}
		})
	})

	t.Run("RdvCorrelation", func(t *testing.T) {
		// Concurrent rendezvous in both directions: each RTS/CTS/Data
		// triple must stay correlated by message id, or payloads land in
		// the wrong buffers.
		w := open(t)
		defer closeWorld(t, w)
		const flows = 4
		size := 96 << 10
		w.RunAll(func(p *mpi.Proc) {
			peer := 1 - p.Rank()
			sends := make([]*core.SendReq, 0, flows)
			recvs := make([]*core.RecvReq, 0, flows)
			bufs := make([][]byte, flows)
			for i := 0; i < flows; i++ {
				sends = append(sends, p.Isend(peer, 100+i, patternedAt(size+i, byte(0x40+i))))
			}
			for i := 0; i < flows; i++ {
				bufs[i] = make([]byte, size+i)
				recvs = append(recvs, p.Irecv(peer, 100+i, bufs[i]))
			}
			for _, r := range sends {
				p.WaitSend(r)
			}
			for i, r := range recvs {
				p.WaitRecv(r)
				if !bytes.Equal(bufs[i], patternedAt(size+i, byte(0x40+i))) {
					t.Errorf("rank %d flow %d: payload crossed rendezvous streams", p.Rank(), i)
				}
			}
		})
	})

	t.Run("AnySource", func(t *testing.T) {
		w := open(t)
		defer closeWorld(t, w)
		const msgs = 5
		w.RunAll(func(p *mpi.Proc) {
			if p.Rank() == 0 {
				seen := 0
				for i := 0; i < msgs; i++ {
					buf := make([]byte, 8)
					n, from := p.Recv(core.AnySource, 11, buf)
					if from != 1 || n != 8 {
						t.Errorf("any-source recv: n=%d from=%d", n, from)
					}
					seen++
				}
				if seen != msgs {
					t.Errorf("matched %d any-source messages, want %d", seen, msgs)
				}
			} else {
				for i := 0; i < msgs; i++ {
					p.Send(0, 11, []byte(fmt.Sprintf("msg%05d", i))) // exactly 8 bytes
				}
			}
		})
	})

	t.Run("Shutdown", func(t *testing.T) {
		w := open(t)
		w.RunAll(func(p *mpi.Proc) {
			p.Barrier()
		})
		closeWorld(t, w)
	})
}

// RunBatchOrdering runs the batched-receive cases against the backend.
// PollBatchContract pins PollBatch on its own terms with one sender: a
// fresh endpoint drains nothing, a run fills only the prefix it reports,
// and PollBatch calls interleave freely with BlockingRecv, every packet
// handed out exactly once. BatchOrdering is the storm regime batching
// exists for: two concurrent senders flood one receiver with 64-byte
// frames while the receiver drains exclusively through PollBatch, and
// every frame must arrive exactly once across batch boundaries.
// strictFIFO additionally asserts, in both cases, that each sender's
// stream arrives in exact send order; pass it for backends that promise
// per-sender FIFO (tcpfab's one stream per peer, shmfab's SPSC rings),
// where successive runs must preserve it. The simulator runs with strictFIFO
// false: its fragmenting wire legally reorders even same-size small
// packets (a frame sent the instant the link goes idle skips the
// fragment slot its predecessor paid), which is exactly the portable
// contract's "receivers reorder by sequence number" — exactly-once is
// still pinned.
func RunBatchOrdering(t *testing.T, open OpenFabric, strictFIFO bool) {
	t.Run("PollBatchContract", func(t *testing.T) {
		f := open(t, 2)
		defer f.Close()
		src, dst := mustEp(t, f, 0), mustEp(t, f, 1)
		sentinel := &wire.Packet{Seq: 999}
		batch := []*wire.Packet{nil, nil, nil, sentinel}
		if k := dst.PollBatch(batch[:3]); k != 0 {
			t.Fatalf("fresh endpoint drained %d packets", k)
		}
		const n = 8
		for i := 1; i <= n; i++ {
			src.Send(&wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i), Payload: []byte{byte(i)}})
		}
		var order []uint64
		deadline := time.Now().Add(recvDeadline)
		for len(order) < n && time.Now().Before(deadline) {
			// One blocking receive, then one batched drain: the two
			// reception paths share the queue and may alternate freely.
			if p := dst.BlockingRecv(5 * time.Millisecond); p != nil {
				order = append(order, p.Seq)
			}
			k := dst.PollBatch(batch[:3])
			for i, p := range batch[:3] {
				if (p != nil) != (i < k) {
					t.Fatalf("PollBatch returned %d but filled %v", k, batch[:3])
				}
				if p != nil {
					order = append(order, p.Seq)
					batch[i] = nil
				}
			}
		}
		if batch[3] != sentinel {
			t.Fatal("PollBatch wrote past the buffer it was given")
		}
		seen := make(map[uint64]bool, n)
		for i, seq := range order {
			if seq < 1 || seq > n || seen[seq] {
				t.Fatalf("seq %d delivered twice (or never sent): %v", seq, order)
			}
			seen[seq] = true
			if strictFIFO && seq != uint64(i+1) {
				t.Fatalf("interleaved drains broke per-sender FIFO: %v", order)
			}
		}
		if k := dst.PollBatch(batch[:3]); len(order) != n || k != 0 {
			t.Fatalf("drained %d of %d frames within the suite deadline, then %d more", len(order), n, k)
		}
	})

	t.Run("BatchOrdering", func(t *testing.T) {
		f := open(t, 3)
		defer f.Close()
		receiver := mustEp(t, f, 1)
		const perSender = 400
		senders := []int{0, 2}
		var wg sync.WaitGroup
		for _, rank := range senders {
			src := mustEp(t, f, rank)
			wg.Add(1)
			go func(src fabric.Endpoint, rank int) {
				defer wg.Done()
				for i := 1; i <= perSender; i++ {
					if err := src.Send(&wire.Packet{
						Kind: wire.PktEager, Src: rank, Dst: 1, Tag: rank,
						Seq:     uint64(i),
						Payload: bytes.Repeat([]byte{byte(rank + 1)}, 64),
					}); err != nil {
						t.Errorf("rank %d send %d: %v", rank, i, err)
						return
					}
				}
			}(src, rank)
		}
		defer wg.Wait()
		lastSeq := make(map[int]uint64, len(senders))
		seen := map[int]map[uint64]bool{0: make(map[uint64]bool, perSender), 2: make(map[uint64]bool, perSender)}
		total := 0
		batch := make([]*wire.Packet, 32)
		deadline := time.Now().Add(recvDeadline)
		for total < perSender*len(senders) {
			n := receiver.PollBatch(batch)
			if n == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("received %d of %d frames within the suite deadline", total, perSender*len(senders))
				}
				time.Sleep(20 * time.Microsecond)
				continue
			}
			for _, p := range batch[:n] {
				if p.Src != 0 && p.Src != 2 {
					t.Fatalf("frame from unknown sender %d", p.Src)
				}
				if p.Seq < 1 || p.Seq > perSender || seen[p.Src][p.Seq] {
					t.Fatalf("sender %d: seq %d delivered twice (or never sent)", p.Src, p.Seq)
				}
				seen[p.Src][p.Seq] = true
				if strictFIFO && p.Seq != lastSeq[p.Src]+1 {
					t.Fatalf("sender %d: seq %d after %d — batched drain broke per-sender FIFO",
						p.Src, p.Seq, lastSeq[p.Src])
				}
				if len(p.Payload) != 64 || p.Payload[0] != byte(p.Src+1) {
					t.Fatalf("sender %d seq %d: payload corrupted", p.Src, p.Seq)
				}
				lastSeq[p.Src] = p.Seq
				total++
				fabric.ReleasePacket(p)
			}
		}
		for _, rank := range senders {
			if len(seen[rank]) != perSender {
				t.Errorf("sender %d: %d frames delivered, want %d", rank, len(seen[rank]), perSender)
			}
		}
	})
}

// failoverParams builds the rail parameters the failover and telemetry
// cases bond. The MTU stays within every backend's payload ceiling —
// udpfab frames must fit one UDP datagram, which caps payloads just
// short of 64 KiB.
func failoverParams(name string) nic.Params {
	return nic.Params{
		Name:         name,
		Link:         wire.MYRI10G(),
		EagerMax:     32 << 10,
		MTU:          32 << 10,
		StripeWeight: 1,
	}
}

// runFailover drives one rail-failure scenario: a two-rank world bonded
// over two rails of the backend under test, the secondary wrapped in a
// Chaos with the given drop rate. Both rails declare a stripe weight, so
// the engine stripes the rendezvous payload across them; it must observe
// the chaotic rail's loss counter move, re-stripe the lost spans onto
// the surviving rail, and complete the transfer intact — with the loss
// left visible in LostFrames.
func runFailover(t *testing.T, open OpenFabric, drop float64, seed int64, msgBytes int) {
	good := open(t, 2)
	lossy := NewChaos(open(t, 2), ChaosConfig{Seed: seed, Drop: drop})
	w := mpi.NewWorld(mpi.Config{
		Nodes:          2,
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		MX:             failoverParams("railA"),
		ExtraRails:     []nic.Params{failoverParams("railB")},
		Fabrics:        map[string]fabric.Fabric{"railA": good, "railB": lossy},
	})
	defer closeWorld(t, w)
	msg := patterned(msgBytes)
	w.RunAll(func(p *mpi.Proc) {
		if p.Rank() == 0 {
			r := p.Isend(1, 5, msg)
			if !r.Rendezvous() {
				t.Errorf("%d KiB send did not pick the rendezvous protocol", msgBytes>>10)
			}
			p.WaitSend(r)
			var ack [1]byte
			p.Recv(1, 6, ack[:])
		} else {
			buf := make([]byte, len(msg))
			if n, _ := p.Recv(0, 5, buf); n != len(msg) || !bytes.Equal(buf, msg) {
				t.Errorf("rendezvous over the surviving rail corrupted (n=%d)", n)
			}
			p.Send(0, 6, []byte{1})
		}
	})
	ep0, err := lossy.Endpoint(0)
	if err != nil {
		t.Fatalf("lossy endpoint: %v", err)
	}
	if ep0.(fabric.LossCounter).LostFrames() == 0 {
		t.Error("chaotic rail counted no lost frames: striping never dropped a chunk on it")
	}
}

// RunRailFailover runs the rail-failure cases against the backend. The
// total-loss case is the original harness: the secondary rail drops
// every frame it accepts (Chaos with Drop=1), so the
// engine must re-stripe everything onto the survivor. The partial-loss
// case is harsher in a different way: at Drop=0.5 roughly half the
// secondary's chunks do land, so the receiver ends up holding spans
// from the chaotic rail interleaved with the survivor's re-striped
// copies of the lost ones — completion proves the engine's reassembly
// tolerates partially-delivered spans rather than merely switching
// rails wholesale.
func RunRailFailover(t *testing.T, open OpenFabric) {
	t.Run("RailFailover", func(t *testing.T) {
		runFailover(t, open, 1, 0, 256<<10)
	})
	t.Run("RailFailoverPartialLoss", func(t *testing.T) {
		// The fixed seed keeps the drop pattern replayable; with eight
		// 32 KiB chunks headed for the chaotic rail, this seed's draw
		// sequence drops some and passes others.
		runFailover(t, open, 0.5, 1, 512<<10)
	})
}

// RunTelemetrySnapshot runs the observability case against the backend:
// the RailFailover scenario (bonded rails, the secondary wrapped in a
// drop-everything Chaos) with a telemetry registry attached to the world,
// asserting the
// rail failure is visible in a registry snapshot — the lossy rail's
// "node0.rail.railB.lost_frames" series must be nonzero the moment the
// transfer completes. The lost_frames metric is registered as a live
// read of the transport's loss counter, not a copy updated on some
// export cadence, so the snapshot cannot lag the failure by more than
// the progress tick that detected it. The case also pins the naming
// scheme end to end: engine, rail and per-peer series all present under
// their documented names for a real bonded world.
func RunTelemetrySnapshot(t *testing.T, open OpenFabric) {
	t.Run("TelemetrySnapshot", func(t *testing.T) {
		good := open(t, 2)
		lossy := NewChaos(open(t, 2), ChaosConfig{Drop: 1})
		reg := telemetry.NewRegistry()
		w := mpi.NewWorld(mpi.Config{
			Nodes:          2,
			Mode:           core.Multithreaded,
			OffloadEager:   true,
			EnableBlocking: true,
			MX:             failoverParams("railA"),
			ExtraRails:     []nic.Params{failoverParams("railB")},
			Fabrics:        map[string]fabric.Fabric{"railA": good, "railB": lossy},
			Metrics:        reg,
		})
		defer closeWorld(t, w)
		msg := patterned(256 << 10)
		w.RunAll(func(p *mpi.Proc) {
			if p.Rank() == 0 {
				p.Send(1, 5, msg)
				var ack [1]byte
				p.Recv(1, 6, ack[:])
			} else {
				buf := make([]byte, len(msg))
				if n, _ := p.Recv(0, 5, buf); n != len(msg) || !bytes.Equal(buf, msg) {
					t.Errorf("rendezvous over the surviving rail corrupted (n=%d)", n)
				}
				p.Send(0, 6, []byte{1})
			}
		})
		snap := reg.Snapshot()
		if lost := snap.Value("node0.rail.railB.lost_frames"); lost == 0 {
			t.Error("rail failure invisible in snapshot: node0.rail.railB.lost_frames is 0")
		}
		if sent := snap.Value("node0.rail.railA.data_sent"); sent == 0 {
			t.Error("surviving rail shows no rendezvous data in snapshot")
		}
		if rdv := snap.Value("node0.engine.rdv_started"); rdv == 0 {
			t.Error("engine rendezvous counter missing from snapshot")
		}
		if got := snap.Value("node1.peer.0.recv_frames"); got == 0 {
			t.Error("per-peer receive counter missing from snapshot")
		}
		if hs := snap.Get("node0.engine.rdv_rts_to_cts_ns"); hs == nil || hs.Hist.Count == 0 {
			t.Error("rendezvous handshake-latency histogram recorded nothing")
		}
	})
}

// closeWorld guards against a Close that hangs on transport teardown.
func closeWorld(t *testing.T, w *mpi.World) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		w.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(recvDeadline):
		t.Fatal("World.Close did not return: shutdown wedged")
	}
}

// mustEp unwraps Endpoint for rank.
func mustEp(t *testing.T, f fabric.Fabric, rank int) fabric.Endpoint {
	t.Helper()
	ep, err := f.Endpoint(rank)
	if err != nil {
		t.Fatalf("Endpoint(%d): %v", rank, err)
	}
	return ep
}

// recvOne waits for one packet through recvErr, failing the test on the
// suite deadline.
func recvOne(t *testing.T, ep fabric.Endpoint) *wire.Packet {
	t.Helper()
	p, err := recvErr(ep)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// patterned returns n bytes of position-derived filler.
func patterned(n int) []byte { return patternedAt(n, 0) }

// patternedAt returns n bytes whose contents depend on both position and
// salt, so cross-delivered buffers never compare equal.
func patternedAt(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + salt
	}
	return b
}
