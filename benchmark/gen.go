package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
)

// run is what the two ranks of one measured window share.
type run struct {
	wl     *workload
	seed   int64
	start  time.Time
	warm   time.Duration // iterations ending before start+warm are dropped
	window time.Duration
	ref    [][]byte // pristine per-slot patterns (patterns)
}

// iterRec is one finished iteration of a rank's closed loop.
type iterRec struct {
	end   int64 // ns since run.start
	bytes int32 // payload bytes this rank received and verified
	msgs  int16 // payload messages likewise
	timed bool  // its duration counts toward iter_p50_us
}

// opCounts is a rank's failure accounting. The fields are atomic only so
// that the watchdog can read them from a hung rank.
type opCounts struct {
	attempted, completed, failed atomic.Int64
}

// gen is one rank's traffic generator: the only code that calls into mpi
// while a window is measured, so it is also where spans are taken.
type gen struct {
	p    *mpi.Proc
	run  *run
	peer int
	send [][]byte // per-slot private copies of run.ref, headers stamped in place
	recv [][]byte
	log  []iterRec
	ops  opCounts
	err  error // first failure, for the report
	// credit holds the one-byte credit sent and the one received; fields,
	// so that posting them allocates nothing.
	credit [2]byte

	tr        *tracer // nil when untraced
	iter      uint32
	idx       uint16
	sampled   bool
	iterStart int64
}

func newGen(r *run, rank int, tr *tracer) *gen {
	g := &gen{run: r, peer: 1 - rank, tr: tr}
	g.send = make([][]byte, r.wl.slots)
	g.recv = make([][]byte, r.wl.slots)
	for s := range g.send {
		g.send[s] = append([]byte(nil), r.ref[s]...)
		g.recv[s] = make([]byte, r.wl.size)
	}
	perSec := 100_000.0 // iterations; above the fastest loop (44k/s) so the log never grows mid-window
	g.log = make([]iterRec, 0, int((r.warm+r.window).Seconds()*perSec)+1024)
	return g
}

func (g *gen) now() int64 { return int64(time.Since(g.run.start)) }

// lastFlag reports, as a header flag, whether the window has run out: the
// driving rank stamps it on its final iteration so the peer stops too.
func (g *gen) lastFlag() uint16 {
	if time.Since(g.run.start) >= g.run.warm+g.run.window {
		return flagLast
	}
	return 0
}

func (g *gen) fail(err error) {
	g.ops.failed.Add(1)
	if g.err == nil {
		g.err = err
	}
}

func (g *gen) begin() {
	g.iter++
	g.idx = 0
	g.sampled = g.tr != nil && g.iter%g.run.wl.sampleEvery == 0
	if g.sampled {
		g.iterStart = g.now()
	}
}

func (g *gen) end(msgs, bytes int, timed bool) {
	now := g.now()
	g.log = append(g.log, iterRec{end: now, bytes: int32(bytes), msgs: int16(msgs), timed: timed})
	if g.sampled {
		g.tr.add(span{start: g.iterStart, dur: now - g.iterStart, iter: g.iter, kind: spIter})
	}
}

// span closes a call span opened at t0.
func (g *gen) span(kind spanKind, t0 int64) {
	g.idx++
	g.tr.add(span{start: t0, dur: g.now() - t0, iter: g.iter, idx: g.idx, kind: kind})
}

// msg stamps slot's send buffer as message seq of the given size.
func (g *gen) msg(slot, size int, seq uint64, flags uint16) []byte {
	m := g.send[slot][:size]
	stamp(m, seq, slot, flags)
	return m
}

// check verifies what arrived in slot's receive buffer and returns the
// header flags.
func (g *gen) check(slot, n, wantLen int, seq uint64) uint16 {
	if n > len(g.recv[slot]) {
		n = len(g.recv[slot])
	}
	flags, err := verify(g.recv[slot][:n], wantLen, seq, slot, g.run.ref[slot])
	if err != nil {
		g.fail(err)
	}
	return flags
}

func (g *gen) isend(tag int, b []byte) *core.SendReq {
	g.ops.attempted.Add(1)
	if !g.sampled {
		return g.p.Isend(g.peer, tag, b)
	}
	t0 := g.now()
	r := g.p.Isend(g.peer, tag, b)
	g.span(spIsend, t0)
	return r
}

func (g *gen) irecv(tag int, b []byte) *core.RecvReq {
	g.ops.attempted.Add(1)
	if !g.sampled {
		return g.p.Irecv(g.peer, tag, b)
	}
	t0 := g.now()
	r := g.p.Irecv(g.peer, tag, b)
	g.span(spIrecv, t0)
	return r
}

func (g *gen) waitSend(r *core.SendReq) {
	if g.sampled {
		t0 := g.now()
		g.p.WaitSend(r)
		g.span(spWaitSend, t0)
	} else {
		g.p.WaitSend(r)
	}
	if err := r.Err(); err != nil {
		g.fail(err)
	}
	r.Release()
	g.ops.completed.Add(1)
}

// waitRecv returns the received length.
func (g *gen) waitRecv(r *core.RecvReq) int {
	if g.sampled {
		t0 := g.now()
		g.p.WaitRecv(r)
		g.span(spWaitRecv, t0)
	} else {
		g.p.WaitRecv(r)
	}
	if err := r.Err(); err != nil {
		g.fail(err)
	}
	n := r.Len()
	r.Release()
	g.ops.completed.Add(1)
	return n
}

func (g *gen) compute(d time.Duration) {
	if !g.sampled {
		g.p.Compute(d)
		return
	}
	t0 := g.now()
	g.p.Compute(d)
	g.span(spCompute, t0)
}

const creditByte = 0xC5

// sendByte and recvByte carry the one-byte credits and acks that close
// the loops; they count as operations but not as payload messages.
func (g *gen) sendByte(tag int) {
	g.credit[0] = creditByte
	g.waitSend(g.isend(tag, g.credit[:1]))
}

func (g *gen) recvByte(tag int) {
	g.credit[1] = 0
	if n := g.waitRecv(g.irecv(tag, g.credit[1:])); n != 1 || g.credit[1] != creditByte {
		g.fail(fmt.Errorf("credit of %d bytes, value %#x", n, g.credit[1]))
	}
}
