package tcpfab

import (
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/wire"
)

// conn is one TCP stream, owned by its endpoint's poller. It splits
// cleanly into three parts:
//
//   - The producer half (qmu-guarded) is what Send touches: an unbounded
//     buffer of serialized frames plus the dead/closing lifecycle bits.
//     Serialization happens at enqueue, before Send returns, preserving
//     the capture contract (the engine may reuse the payload buffer the
//     moment Send returns).
//   - The write-IO half (iomu-guarded) is the detached batch being
//     flushed to the socket (wbuf at offset woff) plus the write-side
//     lifecycle bits. The poller holds iomu across every flush,
//     and a producer whose Send transitioned the queue from empty may
//     grab it opportunistically to write its own frame inline — one
//     syscall on the caller's goroutine instead of a scheduler round
//     trip through the poller.
//   - The read half (rmu-guarded) is the inbound staging window and the
//     large-frame direct-read state. Two readers take turns on it: the
//     poller on EPOLLIN, and a thread polling in PollBatch, which
//     reads the socket itself instead of waiting for the poller to be
//     scheduled. Both go through read, which neither pushes to the inbox
//     nor tears the stream down: a failure a thread sees is flagged in
//     rerr and handed to the poller, which alone fails streams.
//
// The armed flag is the handoff between the producer and IO halves: a
// producer that enqueues onto an unarmed queue flushes inline or kicks
// the poller exactly once; whoever flushes disarms only after observing
// an empty queue under qmu, so a frame can never be enqueued without
// either a kick in flight or a flusher already committed to another
// pass.
//
// qbuf and wbuf are bufpool borrows. The queue grows through the pool
// (fabric.AppendPacketPooled), flushOnce returns a batch to the pool the
// moment its last byte is in the kernel, and between batches the stream
// holds no buffer at all: the GC-trimmed pool classes do the caching, so
// a burst of large frames cannot pin its peak per stream. A Put is safe
// because nothing else ever aliases a batch: the failure paths hand
// queue and residue to the stash, whose appendFrames copies them into a
// fresh buffer and Puts nothing, and a stash that primes a new stream
// becomes that stream's sole queue.
type conn struct {
	e    *Endpoint
	f    *os.File // dup of the handshaken socket; the poller closes it
	fd   int
	rank int

	// Producer half, qmu-guarded.
	qmu     sync.Mutex
	qbuf    []byte
	qends   []int // end offset of each frame in qbuf, ascending
	lastEnq int64 // unix nanos of the previous enqueue (inline-flush gate)
	armed   bool  // a flusher knows about queued data; no kick needed
	dead    bool  // stream failed: enqueue must redial
	closing bool  // endpoint closing: drain, then accept nothing new

	// pendingFrames counts frames accepted into the queue but not yet
	// fully handed to the kernel — what Close's drain loop polls.
	pendingFrames atomic.Int64

	// Write-IO half, iomu-guarded.
	iomu   sync.Mutex
	ioErr  bool // a write failed; the poller must fail the stream
	ioDead bool // teardown ran: the fd is no longer writable
	wbuf   []byte
	wends  []int
	woff   int // bytes of wbuf already written to the kernel

	// Poller half: epoll registration state.
	added bool // EPOLL_CTL_ADD done
	gone  bool // torn down; every later visit is a no-op
	wantW bool // EPOLLOUT armed

	// Read half, rmu-guarded. rbuf[ro:rn] is the staged window; pend is
	// a large frame whose payload is being read directly into its pooled
	// buffer, pendFill bytes so far.
	rmu      sync.Mutex
	rerr     bool // a read failed or a frame was malformed; the poller must fail the stream
	rdead    bool // teardown ran: the fd is no longer readable
	rbuf     []byte
	ro, rn   int
	pend     *wire.Packet
	pendFill int
}

// enqueue serializes p onto the stream's outbound queue and reports
// false when the stream no longer accepts frames (the caller redials).
// The payload has been bounds-checked by Send, so AppendPacket cannot
// panic.
func (c *conn) enqueue(p *wire.Packet) bool {
	now := time.Now().UnixNano()
	c.qmu.Lock()
	if c.dead || c.closing {
		c.qmu.Unlock()
		return false
	}
	c.qbuf = fabric.AppendPacketPooled(c.qbuf, p)
	c.qends = append(c.qends, len(c.qbuf))
	c.pendingFrames.Add(1)
	gap := now - c.lastEnq
	c.lastEnq = now
	kick := !c.armed
	c.armed = true
	c.qmu.Unlock()
	if kick && (gap < inlineGapNanos || !c.tryInlineFlush()) {
		c.e.pl.kick(c)
	}
	return true
}

// inlineGapNanos separates conversational sends from streaming ones: a
// Send arriving this soon after the previous frame is part of a burst,
// and a burst is worth a poller round trip because the poller coalesces
// the whole backlog into one write syscall. A slower cadence means
// latency matters more than batching, so the producer writes inline.
// The gate must sit above the cost of an inline flush itself (~3µs with
// a loopback write syscall) or a streaming sender could never fall back
// to batching, and below the tightest request-response cadence (~9µs
// round trips) or ping-pong latency would pay the poller detour.
const inlineGapNanos = 5000

// tryInlineFlush is the producer fast path: the Send that transitioned
// the queue from empty writes its own frame to the socket right here
// when the write side is uncontended, skipping the kick → wake → poller
// flush round trip entirely. Reports true only when the queue fully
// drained and disarmed; any other outcome (contention, residue left,
// kernel buffer full, write error) falls back to the poller, which owns
// EPOLLOUT arming and stream failure.
func (c *conn) tryInlineFlush() bool {
	if !c.iomu.TryLock() {
		return false
	}
	if c.ioDead || c.ioErr {
		c.iomu.Unlock()
		return false
	}
	st := c.flushOnce()
	if st == flushFailed {
		c.ioErr = true
	}
	c.iomu.Unlock()
	if st == flushDone {
		c.e.pl.flushedInline.Store(true)
	}
	return st == flushDone
}

// flushStatus reports how far one flushOnce pass got.
type flushStatus int

const (
	flushDone    flushStatus = iota // queue drained and disarmed
	flushMore                       // one batch written; more frames remain queued
	flushBlocked                    // kernel buffer full: EPOLLOUT needed
	flushFailed                     // write error: the stream must be failed
)

// flushOnce writes the residue of a previously detached batch, then at
// most one freshly detached run — the whole run leaves in a single
// write syscall when the kernel buffer has room. Caller holds iomu;
// both the poller and producer inline flushes arrive here, so
// every byte of write-side IO stays under one lock no matter which
// goroutine performs it.
func (c *conn) flushOnce() flushStatus {
	detached := false
	for {
		if c.woff == len(c.wbuf) {
			if wn := len(c.wends); wn > 0 {
				// A whole detached batch fully reached the kernel.
				c.e.coalesced.Add(uint64(wn))
				c.pendingFrames.Add(-int64(wn))
				bufpool.Put(c.wbuf)
				c.wbuf, c.wends, c.woff = nil, c.wends[:0], 0
			}
			c.qmu.Lock()
			if len(c.qends) == 0 {
				c.armed = false
				c.qmu.Unlock()
				return flushDone
			}
			if detached {
				c.qmu.Unlock()
				return flushMore
			}
			// Detach the queue as the next batch; the emptied end-offset
			// slice swaps over to the queue for reuse.
			c.wbuf, c.qbuf = c.qbuf, nil
			c.wends, c.qends = c.qends, c.wends
			c.woff = 0
			c.qmu.Unlock()
			detached = true
		}
		n, err := syscall.Write(c.fd, c.wbuf[c.woff:])
		c.e.flushSyscalls.Add(1)
		if n > 0 {
			c.woff += n
		}
		switch err {
		case nil:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return flushBlocked
		default:
			return flushFailed
		}
	}
}

// read drains c's socket into decoded packets appended to run; it is
// the one read path of both readers, and the caller holds rmu. Small
// frames assemble from the staging window; a frame larger than the
// window switches the stream into direct-read mode, filling the pooled
// payload in place with zero extra copies. At most readBudgetBytes
// leave the socket per call. It reports false once the stream has
// failed (EOF, a hard error, a malformed frame, or an earlier failure
// flagged in rerr): the frames in run are whole and still owed to the
// caller, but failing the stream is the poller's job.
func (c *conn) read(run []*wire.Packet) ([]*wire.Packet, bool) {
	if c.rerr {
		return run, false
	}
	budget := readBudgetBytes
	for budget > 0 {
		var n int
		var err error
		if c.pend != nil {
			n, err = syscall.Read(c.fd, c.pend.Payload[c.pendFill:])
			if n > 0 {
				c.pendFill += n
				if c.pendFill == len(c.pend.Payload) {
					p := c.pend
					c.pend, c.pendFill = nil, 0
					p.Src = c.rank
					run = append(run, p)
				}
			}
		} else {
			if c.rbuf == nil {
				c.rbuf = bufpool.Get(readBufBytes)
			}
			if c.ro > 0 {
				copy(c.rbuf, c.rbuf[c.ro:c.rn])
				c.rn -= c.ro
				c.ro = 0
			}
			n, err = syscall.Read(c.fd, c.rbuf[c.rn:])
			if n > 0 {
				c.rn += n
				if !c.decode(&run) {
					c.rerr = true
					return run, false
				}
			}
		}
		if n > 0 {
			budget -= n
			continue
		}
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			break
		}
		// EOF or a hard error: the peer is gone.
		c.rerr = true
		return run, false
	}
	return run, true
}

// decode lifts complete frames out of the staging window; reports false
// on a malformed frame (stream failure). Caller holds rmu.
func (c *conn) decode(run *[]*wire.Packet) bool {
	for {
		avail := c.rn - c.ro
		if avail < fabric.HeaderScratchBytes {
			// The smallest legal frame is exactly HeaderScratchBytes, so
			// nothing complete can be staged yet.
			return true
		}
		p, _, err := fabric.DecodeHeaderPooled(c.rbuf[c.ro:c.rn])
		if err != nil {
			return false
		}
		have := avail - fabric.HeaderScratchBytes
		if have > len(p.Payload) {
			have = len(p.Payload)
		}
		copy(p.Payload[:have], c.rbuf[c.ro+fabric.HeaderScratchBytes:])
		if have == len(p.Payload) {
			p.Src = c.rank
			*run = append(*run, p)
			c.ro += fabric.HeaderScratchBytes + have
			continue
		}
		// Tail of a large frame: read the rest straight into the pooled
		// payload. The staging window is fully consumed by construction.
		c.pend, c.pendFill = p, have
		c.ro, c.rn = 0, 0
		return true
	}
}

// killRead marks the read half dead and releases its buffers. Both
// teardown paths run it before the fd is closed, so no reader can touch
// a closed — or already reused — descriptor.
func (c *conn) killRead() {
	c.rmu.Lock()
	c.rdead = true
	if c.pend != nil {
		fabric.ReleasePacket(c.pend)
		c.pend = nil
	}
	if c.rbuf != nil {
		bufpool.Put(c.rbuf)
		c.rbuf = nil
	}
	c.rmu.Unlock()
}

// killQueue marks the stream dead and surrenders everything still
// queued. None of the returned frames ever reached the socket, so the
// caller may stash them for the stream's replacement; repeat kills
// return an empty remainder.
func (c *conn) killQueue() stash {
	c.qmu.Lock()
	c.dead = true
	s := stash{c.qbuf, c.qends}
	c.qbuf, c.qends = nil, nil
	c.armed = false
	c.pendingFrames.Store(0)
	c.qmu.Unlock()
	return s
}

// markClosing asks the stream to finish its queue and then accept no
// more: a frame the engine sent before Close must still reach the
// kernel buffer, exactly as with the old synchronous Send — the
// shutdown sequencing of both ranks' protocols depends on it.
func (c *conn) markClosing() {
	c.qmu.Lock()
	c.closing = true
	c.qmu.Unlock()
}
