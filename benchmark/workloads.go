package main

import (
	"time"

	"pioman/internal/core"
)

// All loops are closed: a rank posts its next operations only after the
// previous iteration's completed. Rank 0 drives and watches the clock;
// it stamps flagLast on its final iteration so that rank 1 leaves too.

const (
	tagData   = 1
	tagCredit = 2
)

// pingpong: rank 0 Send/Recv one message, rank 1 echoes it.
func pingpong(g *gen) {
	size := g.run.wl.size
	if g.p.Rank() == 0 {
		for seq := uint64(0); ; seq++ {
			flags := g.lastFlag()
			g.begin()
			g.waitSend(g.isend(tagData, g.msg(0, size, seq, flags)))
			n := g.waitRecv(g.irecv(tagData, g.recv[0][:size]))
			g.check(0, n, size, seq)
			g.end(1, size, true)
			if flags != 0 {
				return
			}
		}
	}
	for seq := uint64(0); ; seq++ {
		g.begin()
		n := g.waitRecv(g.irecv(tagData, g.recv[0][:size]))
		flags := g.check(0, n, size, seq)
		g.waitSend(g.isend(tagData, g.msg(0, size, seq, flags)))
		g.end(1, size, false)
		if flags&flagLast != 0 {
			return
		}
	}
}

// stream: rank 0 keeps a window of slots Isends in flight, rank 1
// receives them and returns a one-byte credit per window.
func stream(g *gen) {
	size, w := g.run.wl.size, g.run.wl.slots
	if g.p.Rank() == 0 {
		reqs := make([]*core.SendReq, w)
		for seq := uint64(0); ; {
			flags := g.lastFlag()
			g.begin()
			for k := range reqs {
				reqs[k] = g.isend(tagData, g.msg(k, size, seq, flags))
				seq++
			}
			for _, r := range reqs {
				g.waitSend(r)
			}
			g.recvByte(tagCredit)
			g.end(0, 0, true)
			if flags != 0 {
				return
			}
		}
	}
	reqs := make([]*core.RecvReq, w)
	post := func() {
		for k := range reqs {
			reqs[k] = g.irecv(tagData, g.recv[k][:size])
		}
	}
	post()
	for seq := uint64(0); ; {
		g.begin()
		var flags uint16
		for k, r := range reqs {
			flags |= g.check(k, g.waitRecv(r), size, seq)
			seq++
		}
		last := flags&flagLast != 0
		if !last {
			// Post the next window before the credit releases the sender,
			// so that receives are always expected: the unexpected path is
			// bidirMix's to measure, and a race here would only add noise.
			post()
		}
		g.sendByte(tagCredit)
		g.end(w, w*size, false)
		if last {
			return
		}
	}
}

// overlap is the paper's Fig. 4 loop, one-sided so that a two-core host
// has an idle core to progress on: rank 0 runs Isend; compute; WaitSend;
// Recv(ack), in alternating blocks of 16 iterations without and with the
// compute phase. Only the iterations that compute are timed; the others
// give the T0 that piom.overlap_ratio needs.
func overlap(g *gen) {
	const block = 16
	size := g.run.wl.size
	if g.p.Rank() == 0 {
		for seq := uint64(0); ; seq++ {
			flags := g.lastFlag()
			var c time.Duration
			if (seq/block)%2 == 1 {
				c = g.run.wl.compute
			}
			g.begin()
			r := g.isend(tagData, g.msg(0, size, seq, flags))
			if c > 0 {
				g.compute(c)
			}
			g.waitSend(r)
			g.recvByte(tagCredit)
			g.end(0, 0, c > 0)
			if flags != 0 {
				return
			}
		}
	}
	for seq := uint64(0); ; seq++ {
		g.begin()
		n := g.waitRecv(g.irecv(tagData, g.recv[0][:size]))
		flags := g.check(0, n, size, seq)
		g.sendByte(tagCredit)
		g.end(1, size, false)
		if flags&flagLast != 0 {
			return
		}
	}
}

// bidirMix: both ranks at once send a batch of seeded mixed sizes and
// receive the peer's. Odd batches post the receives after the sends, so
// eager messages land in the unexpected pool and RTSs park; even batches
// post them first. The ranks agree to stop by AllReduce every 64 batches.
func bidirMix(g *gen) {
	const stopEvery = 64
	rank, seed, w := g.p.Rank(), g.run.seed, g.run.wl.slots
	sreqs := make([]*core.SendReq, w)
	rreqs := make([]*core.RecvReq, w)
	want := make([]int, w)
	seq := uint64(0)
	for batch := 0; ; batch++ {
		if batch%stopEvery == 0 {
			var up int64
			if g.lastFlag() != 0 {
				up = 1
			}
			if g.p.AllReduceSumI64(up) > 0 {
				return
			}
		}
		g.begin()
		for phase := 0; phase < 2; phase++ {
			if sendFirst := batch%2 == 1; sendFirst == (phase == 0) {
				for k := range sreqs {
					sreqs[k] = g.isend(tagData, g.msg(k, mixSize(seed, rank, batch, k), seq+uint64(k), 0))
				}
			} else {
				for k := range rreqs {
					want[k] = mixSize(seed, g.peer, batch, k)
					rreqs[k] = g.irecv(tagData, g.recv[k][:want[k]])
				}
			}
		}
		for _, r := range sreqs {
			g.waitSend(r)
		}
		bytes := 0
		for k, r := range rreqs {
			g.check(k, g.waitRecv(r), want[k], seq+uint64(k))
			bytes += want[k]
		}
		seq += uint64(w)
		g.end(w, bytes, rank == 0)
	}
}
