package core

import (
	"testing"

	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/telemetry"
	"pioman/internal/wire"
)

// walksToEnd reports whether splitAggr can step through b entry by entry
// to its exact end without a bounds panic — the property validAggr must
// decide without walking.
func walksToEnd(b []byte) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	for len(b) > 0 {
		_, _, _, b = splitAggr(b)
	}
	return true
}

// FuzzAggrTrain holds validAggr to what it guards: it accepts exactly the
// non-empty payloads splitAggr walks to the end without a bounds panic,
// and handlePacket turns every payload it accepts into matches (through
// matchTrain) or per-entry arrivals without a panic, while every payload
// it rejects is one counted drop. Each accepted train arrives with its
// first entry expected and a receive posted per entry, so matchTrain
// walks it as far as its sequence numbers allow. The committed corpus
// under testdata/fuzz/FuzzAggrTrain runs as a tier-1 test.
func FuzzAggrTrain(f *testing.F) {
	e := newCluster(f, 2, withMode(Sequential)).Nodes[0].Eng
	buf := make([]byte, 64)
	f.Fuzz(func(t *testing.T, b []byte) {
		valid := validAggr(b)
		if walks := len(b) > 0 && walksToEnd(b); walks != valid {
			t.Fatalf("validAggr = %v, but splitAggr walking %d bytes to the end = %v", valid, len(b), walks)
		}
		if valid {
			_, seq, _, _ := splitAggr(b)
			e.qlock.Lock()
			e.peers[1].lastSeq = seq - 1
			e.qlock.Unlock()
			for rest, n := b, 0; len(rest) > 0 && n < 256; n++ {
				_, _, _, rest = splitAggr(rest)
				e.Irecv(1, AnyTag, buf)
			}
		}
		dropped := e.Stats().FramesDropped
		e.pollLock.Lock()
		e.handlePacket(e.defaultRail(), -1, &wire.Packet{Kind: wire.PktAggr, Src: 1, Tag: -1, Payload: b})
		e.pollLock.Unlock()
		if got := e.Stats().FramesDropped - dropped; !valid && got != 1 {
			t.Fatalf("rejected train counted %d drops, want 1", got)
		}
		// Forget the input: the death sweep fails the leftover receives
		// and releases the stash; buffered eager payloads survive it, so
		// they are released here.
		e.MarkPeerDead(1)
		e.MarkPeerAlive(1)
		e.qlock.Lock()
		for _, u := range e.unexpected {
			u.release()
		}
		e.unexpected = e.unexpected[:0]
		e.qlock.Unlock()
	})
}

// fuzzSources maps a frame's source byte to a rank: mostly rank 1, the
// other rank of the world, and otherwise one outside it.
var fuzzSources = [8]int{1, 1, 1, 1, 1, 2, -1, 1 << 30}

// fuzzToggle, as a frame's kind byte, is no frame: it flips rank 1
// between declared dead and alive, so frames from a dead rank are
// reachable input too.
const fuzzToggle = 0xff

// decodeFrames turns b into the frames FuzzEngineFrames injects. Each
// frame is a 7-byte header — kind, source, tag, sequence number, msgID,
// offset, payload length — and then that many payload bytes, fewer
// where b ends first. The payload is a buffer-pool borrow, so the
// packet's release is visible in the pool's counters.
func decodeFrames(b []byte) []*wire.Packet {
	var out []*wire.Packet
	for len(b) >= 7 && len(out) < 64 {
		h := b[:7]
		b = b[7:]
		n := min(int(h[6]), len(b))
		p := fabric.GetPacket()
		p.Kind, p.Src, p.Tag = wire.PacketKind(h[0]%10), fuzzSources[h[1]%8], int(int8(h[2]))
		p.Seq, p.MsgID, p.Offset = uint64(h[3]), uint64(h[4]%4), int(int8(h[5]))
		if h[0] == fuzzToggle {
			p.Kind = fuzzToggle
		}
		if n > 0 {
			p.Payload, p.Pooled = bufpool.Get(n), true
			copy(p.Payload, b[:n])
			b = b[n:]
		}
		out = append(out, p)
	}
	return out
}

// FuzzEngineFrames holds the engine's door to arbitrary frame sequences
// from a peer, injected into rank 0 of a two-rank world with receives
// posted for rank 1: no frame panics the engine, every frame is counted
// exactly once — dropped at the door, as validFrame predicts, or handled
// as received (a handled frame may still drop train entries or chunks
// against stream state) — every injected packet and staged payload goes
// back to the buffer pool once the input is forgotten, and a well-formed
// ping-pong completes afterwards. The committed corpus under
// testdata/fuzz/FuzzEngineFrames — a frame per drop reason and a
// well-formed frame of every kind — runs as a tier-1 test.
func FuzzEngineFrames(f *testing.F) {
	c := newCluster(f, 2, withMode(Sequential), withMetrics(telemetry.NewRegistry()))
	e := c.Nodes[0].Eng
	handled := func() uint64 { return e.peers[0].recvd.Load() + e.peers[1].recvd.Load() }
	// restart resets both ranks' streams to each other, as a death
	// verdict and a revival do: the death sweep fails rank 0's receives
	// and releases its stash and receptions.
	restart := func() {
		for r, eng := range []*Engine{e, c.Nodes[1].Eng} {
			eng.MarkPeerDead(1 - r)
			eng.MarkPeerAlive(1 - r)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		restart()
		before := bufpool.Snapshot()
		for i := 0; i < 3; i++ {
			e.Irecv(1, AnyTag, make([]byte, 64))
		}
		for _, p := range decodeFrames(b) {
			if p.Kind == fuzzToggle {
				if e.PeerDead(1) {
					e.MarkPeerAlive(1)
				} else {
					e.MarkPeerDead(1)
				}
				fabric.ReleasePacket(p)
				continue
			}
			why, _, _ := e.validFrame(p)
			dropped, got := e.Stats().FramesDropped, handled()
			e.pollLock.Lock()
			e.handlePacket(e.defaultRail(), -1, p)
			e.pollLock.Unlock()
			dDrop, dGot := e.Stats().FramesDropped-dropped, handled()-got
			if why != "" && (dDrop != 1 || dGot != 0) || why == "" && dGot != 1 {
				t.Fatalf("frame with door verdict %q counted %d drops and %d receptions", why, dDrop, dGot)
			}
		}
		// Forget the input: buffered eager payloads survive the death
		// sweep, so they are released here.
		restart()
		e.qlock.Lock()
		for _, u := range e.unexpected {
			u.release()
		}
		e.unexpected, e.posted = e.unexpected[:0], e.posted[:0]
		e.qlock.Unlock()
		after := bufpool.Snapshot()
		if gets, puts := after.Hits+after.Misses-before.Hits-before.Misses, after.Puts+after.Drops-before.Puts-before.Drops; gets != puts {
			t.Fatalf("buffer pool: %d gets, %d puts", gets, puts)
		}
		exchange(t, c, 0, 1, 9, 64)
		exchange(t, c, 1, 0, 9, 64)
	})
}
