package core

import (
	"testing"

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
