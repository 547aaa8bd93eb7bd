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
	frame.Payload, frame.Pooled = pooledTrain(train), true
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

// TestLoneEagerFastPath pins which eager frames matchLone delivers under
// its one hold and which it leaves to handleMatchable: an in-order frame
// with a posted receive is delivered straight from the packet, while a
// gap, a non-empty stash, a consumed sequence, no posted receive and a
// dead source each take the reference path, seen through the stash, the
// drop counter and the unexpected count.
func TestLoneEagerFastPath(t *testing.T) {
	eager := func(e *Engine, tag int, seq uint64) {
		inject(e, 1, []trainEntry{{tag: tag, seq: seq, data: []byte{byte(seq)}}}, true)
	}
	type counts struct {
		lastSeq             uint64
		stashed             int
		dropped, unexpected uint64
	}
	read := func(e *Engine) counts {
		st := e.Stats()
		e.qlock.Lock()
		defer e.qlock.Unlock()
		return counts{e.peers[1].lastSeq, len(e.peers[1].stash), st.FramesDropped, st.Unexpected}
	}
	newEngine := func() *Engine { return newCluster(t, 3, withMode(Sequential)).Nodes[0].Eng }
	got := func(r *RecvReq) int {
		if !r.Completed() || r.Err() != nil {
			return -1
		}
		return int(r.buf[0])
	}

	t.Run("in order", func(t *testing.T) {
		e := newEngine()
		r := e.Irecv(1, 5, make([]byte, 8))
		eager(e, 5, 1)
		if got(r) != 1 || read(e) != (counts{lastSeq: 1}) {
			t.Fatalf("receive holds seq %d, engine %+v", got(r), read(e))
		}
	})
	t.Run("gap", func(t *testing.T) {
		e := newEngine()
		r1, r2 := e.Irecv(1, 5, make([]byte, 8)), e.Irecv(1, 5, make([]byte, 8))
		eager(e, 5, 2)
		if c := read(e); c.stashed != 1 || r1.Completed() {
			t.Fatalf("frame past a gap: engine %+v, first receive done %v", c, r1.Completed())
		}
		// The gap fills while the stash holds seq 2: matchLone must
		// leave seq 1 to handleMatchable, which drains the stash behind
		// it.
		eager(e, 5, 1)
		if got(r1) != 1 || got(r2) != 2 || read(e) != (counts{lastSeq: 2}) {
			t.Fatalf("receives hold seqs %d, %d, engine %+v", got(r1), got(r2), read(e))
		}
	})
	t.Run("consumed sequence", func(t *testing.T) {
		e := newEngine()
		r1, r2 := e.Irecv(1, 5, make([]byte, 8)), e.Irecv(1, 5, make([]byte, 8))
		eager(e, 5, 1)
		eager(e, 5, 1)
		if got(r1) != 1 || r2.Completed() || read(e) != (counts{lastSeq: 1, dropped: 1}) {
			t.Fatalf("receives hold seqs %d, %d, engine %+v", got(r1), got(r2), read(e))
		}
	})
	t.Run("no posted receive", func(t *testing.T) {
		e := newEngine()
		eager(e, 7, 1)
		if c := read(e); c != (counts{lastSeq: 1, unexpected: 1}) {
			t.Fatalf("unexpected frame: engine %+v", c)
		}
		if r := e.Irecv(1, 7, make([]byte, 8)); got(r) != 1 {
			t.Fatalf("receive posted late holds seq %d", got(r))
		}
	})
	t.Run("dead source", func(t *testing.T) {
		e := newEngine()
		wild := e.Irecv(AnySource, 5, make([]byte, 8))
		e.MarkPeerDead(1)
		eager(e, 5, 1)
		if c := read(e); wild.Completed() || c != (counts{dropped: 1}) {
			t.Fatalf("frame from a dead rank: AnySource receive done %v, engine %+v", wild.Completed(), c)
		}
	})
}

// TestPostedQueueHeadIndex pins the posted list's matching rules across
// its head index: the oldest matching receive wins whether it sits at
// the head or behind it, with AnySource and AnyTag entries mixed in, and
// a death sweep that runs while the head has moved fails exactly the
// dead rank's receives and keeps the rest in post order.
func TestPostedQueueHeadIndex(t *testing.T) {
	e := newCluster(t, 3, withMode(Sequential)).Nodes[0].Eng
	specs := []recvSpec{{1, 1}, {AnySource, 2}, {2, AnyTag}, {1, AnyTag}, {AnySource, AnyTag}, {2, 1}}
	reqs := make([]*RecvReq, len(specs))
	index := map[*RecvReq]int{}
	for i, s := range specs {
		reqs[i] = e.Irecv(s.src, s.tag, nil)
		index[reqs[i]] = i
	}
	match := func(src, tag int) int {
		e.qlock.Lock()
		defer e.qlock.Unlock()
		if r := e.posted.match(src, tag); r != nil {
			return index[r]
		}
		return -1
	}
	if got := match(1, 1); got != 0 {
		t.Fatalf("(1, 1) matched receive %d, want the head, 0", got)
	}
	if e.posted.head == 0 {
		t.Fatal("a match at the head did not advance the head index")
	}
	// A death sweep while the head index is past 0: receives naming rank
	// 2 fail, AnySource ones stay.
	e.MarkPeerDead(2)
	for i := 1; i < len(reqs); i++ {
		dead := specs[i].src == 2
		if failed := reqs[i].Completed() && reqs[i].Err() == ErrPeerDead; failed != dead {
			t.Errorf("receive %d (src %d): failed %v after rank 2 died", i, specs[i].src, failed)
		}
	}
	for _, c := range []struct{ src, tag, want int }{
		{1, 9, 3}, // behind the head: the AnySource tag-2 receive is skipped
		{1, 2, 1}, // now the head
		{1, 9, 4},
		{1, 1, -1},
	} {
		if got := match(c.src, c.tag); got != c.want {
			t.Errorf("(%d, %d) matched receive %d, want %d", c.src, c.tag, got, c.want)
		}
	}
	// Without a death: the same list, matched from behind the head first.
	e = newCluster(t, 3, withMode(Sequential)).Nodes[0].Eng
	index = map[*RecvReq]int{}
	for i, s := range specs {
		index[e.Irecv(s.src, s.tag, nil)] = i
	}
	for _, c := range []struct{ src, tag, want int }{
		{2, 5, 2}, // the oldest match sits behind two that do not match
		{1, 1, 0}, // the head still wins its own match
		{2, 1, 4}, // AnySource/AnyTag is older than the exact (2, 1)
		{1, 2, 1},
		{2, 1, 5},
		{1, 3, 3},
		{1, 3, -1},
	} {
		if got := match(c.src, c.tag); got != c.want {
			t.Errorf("(%d, %d) matched receive %d, want %d", c.src, c.tag, got, c.want)
		}
	}
}
