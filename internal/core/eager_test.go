package core

import (
	"testing"

	"pioman/internal/fabric"
	"pioman/internal/wire"
)

// TestStashedAggrSubsSurviveFrameRelease pins the ownership rule that
// lets handlePacket release an aggregated frame as soon as it returns: a
// train whose entries sit ahead of the sender's stream (a gap at seq 1)
// parks them in the stash, the frame goes back to the pools, its recycled
// buffer is overwritten, and only then does the gap fill. Every stashed
// entry must still deliver its own bytes — which holds only if stashing
// copied each entry out of the frame first.
func TestStashedAggrSubsSurviveFrameRelease(t *testing.T) {
	const n, size = 6, 96
	// Sequential mode: nothing progresses in the background, so the
	// test's direct handlePacket calls own the polling path.
	e := newCluster(t, 2, withMode(Sequential)).Nodes[1].Eng
	rail := e.defaultRail()

	// Receives for the gap (seq 1) and the train (seqs 2..n+1), posted
	// up front so the stashed entries are delivered straight from their
	// staging copies once the gap fills.
	bufs := make([][]byte, n+1)
	reqs := make([]*RecvReq, n+1)
	for i := range reqs {
		bufs[i] = make([]byte, size)
		reqs[i] = e.Irecv(0, 100+i, bufs[i])
	}

	train := make([]*SendReq, n)
	for i := range train {
		train[i] = &SendReq{tag: 101 + i, seq: uint64(2 + i), data: payload(size, byte(i+1))}
	}
	frame := fabric.GetPacket()
	frame.Kind, frame.Src, frame.Dst, frame.Tag, frame.Seq = wire.PktAggr, 0, 1, -1, 2
	frame.Payload, frame.Pooled = encodeAggr(train), true
	recycled := frame.Payload[:cap(frame.Payload)]

	e.pollLock.Lock()
	defer e.pollLock.Unlock()
	e.handlePacket(rail, -1, frame)
	if got := len(e.peers[0].stash); got != n {
		t.Fatalf("%d entries stashed, want %d", got, n)
	}
	// handlePacket released the frame: its buffer is the pool's now, and
	// the next frame to borrow it writes over every byte.
	for i := range recycled {
		recycled[i] = 0xEE
	}

	gap := fabric.GetPacket()
	gap.Kind, gap.Src, gap.Dst, gap.Tag, gap.Seq = wire.PktEager, 0, 1, 100, 1
	gap.Payload = payload(size, 0)
	e.handlePacket(rail, -1, gap)

	if got := len(e.peers[0].stash); got != 0 {
		t.Fatalf("%d entries still stashed after the gap filled", got)
	}
	for i, r := range reqs {
		if !r.Completed() {
			t.Fatalf("receive %d (seq %d) incomplete", i, i+1)
		}
		want := payload(size, byte(i))
		for j := range want {
			if bufs[i][j] != want[j] {
				t.Fatalf("seq %d byte %d = %#x, want %#x", i+1, j, bufs[i][j], want[j])
			}
		}
	}
}
