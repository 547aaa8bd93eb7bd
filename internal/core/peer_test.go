package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pioman/internal/piom"
	"pioman/internal/sched"
	"pioman/internal/topo"
	"pioman/internal/wire"
)

// exchange sends one message from -> to and fails the test (instead of
// hanging it) when either side does not complete cleanly.
func exchange(t *testing.T, c *testCluster, from, to, tag, size int) {
	t.Helper()
	data := payload(size, byte(tag))
	buf := make([]byte, size)
	var sendErr, recvErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.run(from, func(th *sched.Thread) {
			eng := c.Nodes[from].Eng
			s := eng.Isend(to, tag, data)
			if !eng.WaitAllTimeout(th, 5*time.Second, s.Req()) {
				sendErr = fmt.Errorf("send timed out")
			} else {
				sendErr = s.Err()
			}
		})
	}()
	go func() {
		defer wg.Done()
		c.run(to, func(th *sched.Thread) {
			eng := c.Nodes[to].Eng
			r := eng.Irecv(from, tag, buf)
			if !eng.WaitAllTimeout(th, 5*time.Second, r.Req()) {
				recvErr = fmt.Errorf("recv timed out")
			} else {
				recvErr = r.Err()
			}
		})
	}()
	wg.Wait()
	if sendErr != nil || recvErr != nil {
		t.Fatalf("%d -> %d tag %d (%d B): send: %v, recv: %v", from, to, tag, size, sendErr, recvErr)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("%d -> %d tag %d (%d B): payload corrupted", from, to, tag, size)
	}
}

// TestRespawnedRankRestartsStreams is the nmrun -respawn path: rank 1
// dies after both directions' streams advanced, rank 0 applies the
// registry's verdicts (MarkPeerDead, then MarkPeerAlive), and a fresh
// engine comes up on rank 1's endpoint. Both directions must restart at
// sequence 1 — before peer.reset zeroed the stream counters at death,
// the new incarnation's first eager frame tripped rank 0's duplicate
// sequence panic and rank 0's next send stashed forever on rank 1.
func TestRespawnedRankRestartsStreams(t *testing.T) {
	const eager, rdv = 4 << 10, 64 << 10
	c := newCluster(t, 2)
	for i, size := range []int{eager, rdv} {
		exchange(t, c, 0, 1, 10+i, size)
		exchange(t, c, 1, 0, 20+i, size)
	}

	// Rank 1's process dies: its engine stops progressing for good.
	old := c.Nodes[1]
	old.Srv.Stop()
	old.Sch.Shutdown()
	c.Nodes[0].Eng.MarkPeerDead(1)
	c.Nodes[0].Eng.MarkPeerAlive(1)

	// The respawned incarnation: a fresh engine on the same endpoint.
	sch := sched.New(sched.Config{Machine: topo.Machine{Sockets: 1, CoresPerSocket: 4}})
	srv := piom.NewServer(sch, piom.Config{EnableIdleHook: true})
	eng := New(1, sch, srv, old.Eng.Rails(), Config{Mode: Multithreaded, OffloadEager: true})
	srv.Start()
	c.Nodes[1] = &testNode{Sch: sch, Srv: srv, Eng: eng}

	for i, size := range []int{eager, rdv} {
		exchange(t, c, 1, 0, 30+i, size)
		exchange(t, c, 0, 1, 40+i, size)
	}
	if got := c.Nodes[0].Eng.Stats().PeerDead; got != 1 {
		t.Errorf("PeerDead = %d, want 1", got)
	}
}

// TestRankValidation covers what the per-rank maps used to hide: a frame
// naming a source outside [0, Nodes) is dropped and counted before it can
// index a peer, a matchable frame from a dead rank is dropped instead of
// advancing the zeroed stream, a control frame — which nothing in the
// engine sends or consumes — is dropped from any rank, posts naming an out-of-range rank panic
// with the rank and the world size, and the liveness calls keep ignoring
// out-of-range ranks.
func TestRankValidation(t *testing.T) {
	frame := func(kind wire.PacketKind, src int) func(*Engine) {
		return func(e *Engine) {
			e.handlePacket(e.defaultRail(), -1, &wire.Packet{Kind: kind, Src: src, Dst: 0, Tag: 1, Seq: 1, MsgID: 1, Payload: make([]byte, 16)})
		}
	}
	cases := []struct {
		name        string
		do          func(e *Engine)
		wantPanic   string // substring; empty means must not panic
		wantDropped uint64
	}{
		{name: "eager frame src=-1", do: frame(wire.PktEager, -1), wantDropped: 1},
		{name: "eager frame src=Nodes", do: frame(wire.PktEager, 3), wantDropped: 1},
		{name: "rts frame src=Nodes", do: frame(wire.PktRTS, 3), wantDropped: 1},
		{name: "cts frame src=huge", do: frame(wire.PktCTS, 1<<30), wantDropped: 1},
		{name: "data frame src=Nodes", do: frame(wire.PktData, 3), wantDropped: 1},
		{name: "ack frame src=-7", do: frame(wire.PktDataAck, -7), wantDropped: 1},
		{name: "ctrl frame src=Nodes", do: frame(wire.PktCtrl, 3), wantDropped: 1},
		{name: "ctrl frame in world", do: frame(wire.PktCtrl, 1), wantDropped: 1},
		{name: "eager frame from dead rank", do: func(e *Engine) {
			e.MarkPeerDead(2)
			frame(wire.PktEager, 2)(e)
			if got := e.peers[2].lastSeq; got != 0 {
				panic(fmt.Sprintf("dead rank's frame advanced lastSeq to %d", got))
			}
		}, wantDropped: 1},
		{name: "in-range frame is processed", do: frame(wire.PktEager, 2)},
		{name: "Isend dst=-1", do: func(e *Engine) { e.Isend(-1, 1, nil) }, wantPanic: "rank -1 outside the world of 3 ranks"},
		{name: "Isend dst=Nodes", do: func(e *Engine) { e.Isend(3, 1, nil) }, wantPanic: "rank 3 outside the world of 3 ranks"},
		{name: "Irecv src=Nodes", do: func(e *Engine) { e.Irecv(3, 1, nil) }, wantPanic: "rank 3 outside the world of 3 ranks"},
		{name: "Irecv src=-2", do: func(e *Engine) { e.Irecv(-2, 1, nil) }, wantPanic: "rank -2 outside the world of 3 ranks"},
		{name: "Irecv AnySource", do: func(e *Engine) { e.Irecv(AnySource, 1, nil) }},
		{name: "liveness calls out of range", do: func(e *Engine) {
			for _, r := range []int{-1, 3, 1 << 30} {
				e.MarkPeerDead(r)
				e.MarkPeerAlive(r)
				if e.PeerDead(r) {
					panic("out-of-range rank reported dead")
				}
			}
			if st := e.Stats(); st.PeerDead != 0 {
				panic("out-of-range MarkPeerDead counted a death")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Sequential mode: nothing progresses in the background, so the
			// test's direct handlePacket calls own the polling path.
			e := newCluster(t, 3, withMode(Sequential)).Nodes[0].Eng
			defer func() {
				msg := fmt.Sprint(recover())
				switch {
				case tc.wantPanic == "" && msg != "<nil>":
					t.Fatalf("panicked: %s", msg)
				case !strings.Contains(msg, tc.wantPanic):
					t.Fatalf("panic %q, want one naming %q", msg, tc.wantPanic)
				}
				if got := e.Stats().FramesDropped; got != tc.wantDropped {
					t.Errorf("FramesDropped = %d, want %d", got, tc.wantDropped)
				}
			}()
			tc.do(e)
		})
	}
}

// TestDoneRingPerPeerIsolation pins what moving the done-ring into peer
// bought: rank 1 completing more than doneRingCap rendezvous to rank 2
// cannot evict rank 2's memory of rank 0's single completed transfer, so
// a replayed DATA chunk of it is still re-acked rather than dropped as
// late data (with the engine-wide ring the sender would have replayed
// until its own backoff gave out).
func TestDoneRingPerPeerIsolation(t *testing.T) {
	const size = 33 << 10 // just above the 32K rendezvous threshold
	c := newCluster(t, 3, withMode(Sequential))
	quiet, chatty, recv := c.Nodes[0].Eng, c.Nodes[1].Eng, c.Nodes[2].Eng

	transfer := func(from int, eng *Engine, tag int) *SendReq {
		var s *SendReq
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c.run(from, func(th *sched.Thread) {
				s = eng.Isend(2, tag, make([]byte, size))
				eng.WaitSend(s, th)
			})
		}()
		go func() {
			defer wg.Done()
			c.run(2, func(th *sched.Thread) {
				r := recv.Irecv(from, tag, make([]byte, size))
				recv.WaitRecv(r, th)
				r.Release()
			})
		}()
		wg.Wait()
		return s
	}

	first := transfer(0, quiet, 1)
	if recv.peers[1].done.ids != nil {
		t.Error("a peer that completed nothing already owns a done-ring")
	}
	for i := 0; i <= doneRingCap; i++ {
		transfer(1, chatty, 2).Release()
	}
	if n := len(recv.peers[1].done.ids); n != doneRingCap {
		t.Fatalf("chatty peer's ring holds %d ids, want it full at %d", n, doneRingCap)
	}

	// Replay one chunk of the quiet rank's completed transfer and watch
	// its endpoint for the re-ack. Sequential engines only progress when
	// driven, so the raw polls below see every frame rank 2 sends back.
	rail := quiet.defaultRail()
	rail.SendData(railHeader(0, 2, first.tag, first.seq, first.msgID), 0, first.data[:1024])
	batch := make([]*wire.Packet, 8)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		recv.Progress(-1)
		for _, p := range batch[:rail.PollBatch(batch)] {
			if p.Kind == wire.PktDataAck && p.Src == 2 && p.MsgID == first.msgID {
				return
			}
		}
	}
	t.Fatal("replayed DATA chunk of the quiet rank's transfer was not re-acked")
}
