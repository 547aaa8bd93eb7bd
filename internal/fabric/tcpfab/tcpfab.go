// Package tcpfab is a real transport backend for the fabric layer: packets
// travel between operating-system processes as length-prefixed frames
// (fabric's codec) over TCP connections, one per peer per direction.
//
// Topology is a full mesh of ranks. Every endpoint listens; a connection
// toward a peer is dialed lazily on first send when the peer's address is
// known, and an accepted connection is adopted as the send path when no
// dialed one exists yet — so an asymmetric setup (only one side knows an
// address, as in pingpong's -listen/-connect pair) still yields two-way
// traffic. Each endpoint writes to a peer on exactly one stream, which
// gives the per-sender FIFO delivery the engine's sequence-ordering layer
// assumes, with no cross-size reordering at all.
//
// Connections are NOT serviced by per-stream goroutines. Each endpoint
// owns one event-driven poller, started lazily, that multiplexes every
// connection through one epoll instance: the paper's central claim —
// many communication flows progressed by a small, controlled set of
// threads — applied to the socket layer itself. An endpoint serving N
// peers costs one poller goroutine, not O(N). A thread polling the
// endpoint reads the streams itself (PollBatch), the way the paper's
// waiting thread polls the NIC; the poller reads what lands while no
// thread polls, flushes queued sends and alone fails streams. On the
// send side, frames queued for one stream while the poller was busy are
// coalesced and flushed as a single run — one write syscall when the
// kernel buffer has room — the send-side dual of PollBatch.
//
// Simultaneous connect (both sides of a cold pair dial at once) can leave
// a pair with two live streams: each side may adopt the other's dialed
// connection as its send path before its own dial completes. Once a
// handshake has been written on a dialed stream the peer may legitimately
// answer on it, so the loser of the race is never closed — it stays open
// and read, it just carries no outbound traffic from this side. Closing
// it instead would RST frames the peer already wrote into it.
//
// The implementation is Linux-only (raw epoll via the syscall package),
// matching the deployment and CI targets.
package tcpfab

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/telemetry"
	"pioman/internal/wire"
)

// handshake frame: magic, codec-compatible version, sender rank, cluster
// size. Exchanged once, dialer to acceptor, before any packet frames.
const (
	hsMagic   = 0x50494F4D // "PIOM"
	hsVersion = 1
	hsBytes   = 4 + 4 + 4 + 4

	dialTimeout      = 10 * time.Second
	handshakeTimeout = 10 * time.Second

	// Dial retry tuning: a transient peer restart (process replaced, its
	// listener rebound moments later) looks exactly like a dead address
	// for a short window. Retrying the dial with capped exponential
	// backoff inside dialRetryWindow rides that window out, so one peer
	// bouncing does not permanently strand the other side's rendezvous
	// state; only an address that stays dead for the whole window counts
	// as a failed dial.
	dialRetryWindow  = 3 * time.Second
	dialBackoffFirst = 10 * time.Millisecond
	dialBackoffMax   = 400 * time.Millisecond

	// closeDrainTimeout bounds how long Close lets the poller flush
	// queued frames toward a peer that has stopped reading.
	closeDrainTimeout = 5 * time.Second

	// readBufBytes sizes each stream's inbound staging window, drawn
	// from the fabric buffer pool. Small frames assemble inside it — one
	// socket read yields a whole decoded run — and a frame larger than
	// it switches the stream into direct-read mode, filling the pooled
	// payload in place.
	readBufBytes = 64 << 10
)

// Config describes one process's attachment to a TCP fabric.
type Config struct {
	// Self is this endpoint's rank.
	Self int
	// Nodes is the cluster size.
	Nodes int
	// Listen is the address to accept peers on (e.g. "127.0.0.1:0",
	// ":9777"). Empty disables accepting: only dialed peers are
	// reachable.
	Listen string
	// Peers maps rank to dial address for the peers this process may
	// have to contact first. Peers that always speak first (they dial
	// us) can be omitted; their accepted connection becomes the send
	// path.
	Peers map[int]string
}

// Endpoint is one process's port on a TCP fabric.
type Endpoint struct {
	self, nodes int

	ln net.Listener

	mu      sync.Mutex
	peers   map[int]string
	out     map[int]*conn         // send path per peer
	dialing map[int]chan struct{} // in-flight dial per peer; closed when done
	open    map[net.Conn]struct{} // handshake-phase accepted conns, for teardown
	conns   map[*conn]struct{}    // every registered stream, for close-drain
	stash   map[int]stash         // undelivered frames of a failed stream, per peer

	pl *poller

	// The thread-side reader of PollBatch. readable is e.conns as a
	// copy-on-write slice (republished under mu), so a poll walks it
	// without taking mu. readMu admits one polling thread at a time and
	// guards rcur, the rotating start of its visits, and rrun, its
	// reusable run buffer.
	readable atomic.Pointer[[]*conn]
	readMu   sync.Mutex
	rcur     int
	rrun     []*wire.Packet

	lost  atomic.Uint64 // frames accepted by Send, then lost with a stream
	state atomic.Int32  // 0 open, 1 closed
	done  chan struct{} // closed on Close; wakes every blocked receiver
	inbox *fabric.Inbox
	wg    sync.WaitGroup

	// Poller/connection accounting, surfaced via RegisterMetrics.
	nPollers      atomic.Int64
	nConns        atomic.Int64
	coalesced     atomic.Uint64 // frames flushed as part of a multi-frame (or single) run
	flushSyscalls atomic.Uint64 // write(2) calls issued by the flush path
	parks         atomic.Uint64 // poller spin→park transitions
}

// stash holds serialized frames bound for a peer whose stream failed
// before they were written. The frame end offsets let a later failure
// split the run at a write boundary again. A stash primes the next
// stream adopted toward its peer, so the frames go out ahead of any new
// traffic; only an endpoint that closes with the stash unconsumed
// abandons it (counted in LostFrames by Close).
type stash struct {
	buf  []byte
	ends []int // end offset of each frame in buf, ascending
}

// appendFrames concatenates src's frames after dst's, rebasing the end
// offsets onto the combined buffer.
func appendFrames(dst *stash, src stash) {
	if len(src.ends) == 0 {
		return
	}
	base := len(dst.buf)
	dst.buf = append(dst.buf, src.buf...)
	for _, end := range src.ends {
		dst.ends = append(dst.ends, base+end)
	}
}

// New opens an endpoint per cfg. If cfg.Listen is set the returned
// endpoint is already accepting; its actual address (useful with port 0)
// is Addr().
func New(cfg Config) (*Endpoint, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("tcpfab: cluster needs at least one node")
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		return nil, fmt.Errorf("tcpfab: rank %d outside cluster of %d", cfg.Self, cfg.Nodes)
	}
	e := &Endpoint{
		self:    cfg.Self,
		nodes:   cfg.Nodes,
		peers:   make(map[int]string, len(cfg.Peers)),
		out:     make(map[int]*conn),
		dialing: make(map[int]chan struct{}),
		open:    make(map[net.Conn]struct{}),
		conns:   make(map[*conn]struct{}),
		stash:   make(map[int]stash),
		done:    make(chan struct{}),
		inbox:   fabric.NewInbox(),
	}
	e.pl = &poller{e: e, epfd: -1}
	for r, a := range cfg.Peers {
		e.peers[r] = a
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcpfab: listen %s: %w", cfg.Listen, err)
		}
		e.ln = ln
		e.wg.Add(1)
		go e.acceptLoop()
	}
	return e, nil
}

// Addr returns the actual listen address, or nil when not listening.
func (e *Endpoint) Addr() net.Addr {
	if e.ln == nil {
		return nil
	}
	return e.ln.Addr()
}

// SetPeerAddr records rank's dial address (e.g. learned out of band after
// both sides bound ephemeral ports).
func (e *Endpoint) SetPeerAddr(rank int, addr string) {
	e.mu.Lock()
	e.peers[rank] = addr
	e.mu.Unlock()
}

// Self implements fabric.Endpoint.
func (e *Endpoint) Self() int { return e.self }

// Nodes implements fabric.Endpoint.
func (e *Endpoint) Nodes() int { return e.nodes }

// SendCaptures implements fabric.SendCapturer: Send serializes cross-rank
// packets (enqueue) and copies self-deliveries before returning, so the
// caller may recycle the packet struct immediately.
func (e *Endpoint) SendCaptures() bool { return true }

// pollReadConns bounds how many streams one PollBatch reads itself, so
// an empty poll costs at most this many read syscalls however many
// peers the endpoint carries. A rotating cursor spreads the visits, and
// the poller still reads every stream.
const pollReadConns = 4

// PollBatch implements fabric.Endpoint. It pops what the poller already
// pushed to the inbox; when that is nothing, it reads the sockets
// itself, up to pollReadConns streams without blocking, and hands the
// frames straight to the caller: a waiting thread does not wait for the
// poller goroutine to be scheduled. Concurrent callers take turns on
// the one thread-side reader; a caller that finds it busy returns 0.
// Per-stream FIFO holds across both readers: a stream's frames enter
// the inbox or leave here only under its read lock, and a visit pops
// the inbox before reading.
func (e *Endpoint) PollBatch(into []*wire.Packet) int {
	if n := e.inbox.PopRun(into); n > 0 || len(into) == 0 {
		return n
	}
	cs := e.readable.Load()
	if cs == nil || len(*cs) == 0 || !e.readMu.TryLock() {
		return 0
	}
	defer e.readMu.Unlock()
	conns := *cs
	n, i := 0, 0
	for ; i < min(len(conns), pollReadConns) && n < len(into); i++ {
		n = e.readConn(conns[(e.rcur+i)%len(conns)], into, n)
	}
	e.rcur = (e.rcur + i) % len(conns)
	return n
}

// readConn is one thread-side visit to c: it fills into[n:] and returns
// the new count. The inbox is popped again under c's read lock, since
// anything the poller read from c earlier waits there and must go out
// first; frames read past into's room are pushed to the inbox before
// the lock is released, ahead of anything c delivers later. A failure
// is handed to the poller through the kill mailbox. Caller holds readMu.
func (e *Endpoint) readConn(c *conn, into []*wire.Packet, n int) int {
	c.rmu.Lock()
	if c.rdead || c.rerr {
		c.rmu.Unlock()
		return n
	}
	if n += e.inbox.PopRun(into[n:]); n == len(into) {
		c.rmu.Unlock()
		return n
	}
	run, ok := c.read(e.rrun[:0])
	k := copy(into[n:], run)
	if k < len(run) {
		e.inbox.PushRun(run[k:])
	}
	clear(run)
	e.rrun = run[:0]
	c.rmu.Unlock()
	if !ok {
		e.pl.kill(c)
	}
	return n + k
}

// GoroutineFed implements fabric.GoroutineFed: the poller also moves
// frames (those that land while no thread polls) and flushes what
// producers queue, and a caller that never leaves its processor keeps
// them queued.
func (e *Endpoint) GoroutineFed() bool { return true }

// BlockingRecv implements fabric.Endpoint.
func (e *Endpoint) BlockingRecv(timeout time.Duration) *wire.Packet {
	return e.inbox.Recv(timeout, e.done)
}

// Dial eagerly establishes the connection toward rank, which Send would
// otherwise create lazily. Use it to fail fast on a bad address instead
// of discovering it one dropped packet at a time.
func (e *Endpoint) Dial(rank int) error {
	if e.closed() {
		return fabric.ErrClosed
	}
	if rank == e.self {
		return nil
	}
	_, err := e.connTo(rank)
	return err
}

// Send implements fabric.Endpoint.
func (e *Endpoint) Send(p *wire.Packet) error {
	if e.closed() {
		return fabric.ErrClosed
	}
	if p.Dst < 0 || p.Dst >= e.nodes {
		return fmt.Errorf("tcpfab: send to rank %d outside cluster of %d", p.Dst, e.nodes)
	}
	if p.WireLen <= 0 {
		p.WireLen = len(p.Payload)
	}
	// Refuse here, synchronously, what the codec cannot frame: detected
	// any later, the poller could only treat it as a stream failure and
	// kill a healthy connection. Self-delivery skips the codec but is
	// held to the same limit, so a payload does not pass rank-local
	// testing only to fail on its first cross-rank trip.
	if len(p.Payload) > fabric.MaxPayloadBytes {
		return fmt.Errorf("tcpfab: %d-byte payload exceeds frame limit %d", len(p.Payload), fabric.MaxPayloadBytes)
	}
	if p.Dst == e.self {
		// Self-delivery skips the codec but not the capture rule: the
		// engine may reuse the payload buffer the moment Send returns, so
		// the packet must stop aliasing it before entering the inbox —
		// cross-rank sends capture by serializing in enqueue. The copy
		// lives in pooled storage like any decoded arrival, so the
		// consumer's ReleasePacket recycles it the same way.
		e.inbox.Push(fabric.CapturePacket(p))
		return nil
	}
	for {
		c, err := e.connTo(p.Dst)
		if err != nil {
			return err
		}
		if c.enqueue(p) {
			return nil
		}
		// The stream died between lookup and enqueue and the poller has
		// unregistered it; redial and try again. A peer that is truly
		// gone ends the loop with a dial error.
	}
}

// connTo returns the send path toward rank, dialing it if needed. The
// dial itself runs outside the endpoint lock with a per-peer in-flight
// marker: concurrent senders to the same cold peer wait for that one
// dial, while senders to connected peers (and accept/Close) are never
// head-of-line blocked behind a slow or dead address.
func (e *Endpoint) connTo(rank int) (*conn, error) {
	for {
		e.mu.Lock()
		// Close sets state before taking mu, so a sender that raced
		// past Send's entry check cannot dial and register a connection
		// after Close has torn down.
		if e.closed() {
			e.mu.Unlock()
			return nil, fabric.ErrClosed
		}
		if c := e.out[rank]; c != nil {
			e.mu.Unlock()
			return c, nil
		}
		if ch := e.dialing[rank]; ch != nil {
			e.mu.Unlock()
			<-ch
			continue // dial finished (either way) — re-evaluate
		}
		addr, ok := e.peers[rank]
		if !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("tcpfab: no address for rank %d and no accepted connection from it", rank)
		}
		ch := make(chan struct{})
		e.dialing[rank] = ch
		e.mu.Unlock()

		nc, err := e.dialWithBackoff(addr)

		e.mu.Lock()
		delete(e.dialing, rank)
		close(ch)
		if err != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("tcpfab: dial rank %d at %s: %w", rank, addr, err)
		}
		if e.closed() {
			e.mu.Unlock()
			nc.Close()
			return nil, fabric.ErrClosed
		}
		cn, rerr := e.registerConnLocked(nc, rank)
		if rerr != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("tcpfab: register dialed conn for rank %d: %w", rank, rerr)
		}
		// Whether or not an accepted connection won the send-path slot
		// while we dialed (simultaneous connect), the dialed stream
		// stays open and read: our handshake is out, so the peer may
		// have adopted this stream as ITS send path and written frames
		// to it already — closing it here would RST those frames away.
		// A stream that lost the race on both ends just idles.
		sendPath := e.out[rank]
		e.mu.Unlock()
		if err := e.pl.register(cn); err != nil {
			e.unregisterUnpolled(cn)
			return nil, fmt.Errorf("tcpfab: register dialed conn for rank %d: %w", rank, err)
		}
		return sendPath, nil
	}
}

// dialWithBackoff dials addr and writes the stream handshake, retrying
// failed attempts with capped exponential backoff until dialRetryWindow
// elapses — the connection-resilience half of a peer restart (the other
// half is the poller unregistering the dead conn so Send redials). Close
// aborts the wait immediately; the last attempt's error is returned.
func (e *Endpoint) dialWithBackoff(addr string) (net.Conn, error) {
	backoff := dialBackoffFirst
	deadline := time.Now().Add(dialRetryWindow)
	for {
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			err = writeHandshake(c, e.self, e.nodes)
			if err == nil {
				return c, nil
			}
			c.Close()
		}
		if e.closed() || time.Now().After(deadline) {
			return nil, err
		}
		select {
		case <-e.done:
			return nil, err
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// dupFD extracts the socket fd from a handshaken net.Conn for raw epoll
// use. The *os.File dup owns the fd from here on — the net.Conn is
// closed (its runtime-netpoller registration with it) and the dup is put
// back into non-blocking mode, which File() had cleared.
func dupFD(nc net.Conn) (*os.File, int, error) {
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		nc.Close()
		return nil, 0, fmt.Errorf("tcpfab: %T is not a *net.TCPConn", nc)
	}
	f, err := tc.File()
	nc.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("tcpfab: dup socket fd: %w", err)
	}
	fd := int(f.Fd())
	if err := syscall.SetNonblock(fd, true); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("tcpfab: set nonblock: %w", err)
	}
	return f, fd, nil
}

// registerConnLocked converts a handshaken stream into a poller-owned
// conn: dup the fd out of the net.Conn, start the poller on first use,
// adopt the stream as rank's send path when none exists — loading any
// banked stash ahead of new traffic — and enter it in the endpoint
// tables. Caller holds e.mu and has ruled out Close having
// started; the caller must then hand the conn to e.pl.register outside
// the lock.
func (e *Endpoint) registerConnLocked(nc net.Conn, rank int) (*conn, error) {
	f, fd, err := dupFD(nc)
	if err != nil {
		return nil, err
	}
	if err := e.pl.start(); err != nil {
		f.Close()
		return nil, err
	}
	c := &conn{e: e, f: f, fd: fd, rank: rank}
	if e.out[rank] == nil {
		if s, ok := e.stash[rank]; ok {
			delete(e.stash, rank)
			c.qbuf, c.qends = s.buf, s.ends
			c.armed = true // add() performs the initial flush
			c.pendingFrames.Add(int64(len(s.ends)))
		}
		e.out[rank] = c
	}
	e.conns[c] = struct{}{}
	e.publishConnsLocked()
	e.nConns.Add(1)
	return c, nil
}

// publishConnsLocked republishes e.conns as the slice PollBatch reads.
// Caller holds e.mu.
func (e *Endpoint) publishConnsLocked() {
	cs := make([]*conn, 0, len(e.conns))
	for c := range e.conns {
		cs = append(cs, c)
	}
	e.readable.Store(&cs)
}

// unregisterUnpolled backs out a conn whose poller registration failed
// (endpoint raced Close): the stream never reached the poller, so this
// is the one teardown path that runs off the poller goroutine.
func (e *Endpoint) unregisterUnpolled(c *conn) {
	c.killRead()
	tail := c.killQueue()
	e.mu.Lock()
	if e.out[c.rank] == c {
		delete(e.out, c.rank)
	}
	delete(e.conns, c)
	e.publishConnsLocked()
	if len(tail.ends) > 0 {
		if e.closed() {
			e.lost.Add(uint64(len(tail.ends)))
		} else {
			var merged stash
			appendFrames(&merged, e.stash[c.rank])
			appendFrames(&merged, tail)
			e.stash[c.rank] = merged
		}
	}
	e.mu.Unlock()
	c.f.Close()
	e.nConns.Add(-1)
}

// acceptLoop admits peers. The handshake runs in the per-connection
// goroutine — with the conn already tracked for teardown — so a peer that
// connects and stalls can never wedge Close. The goroutine ends at
// registration: from then on the endpoint's poller services the stream.
func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.state.Load() != 0 {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.open[c] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.serveConn(c)
	}
}

// serveConn validates an accepted stream, adopts it as the send path to
// its peer when none exists, and hands it to the poller.
func (e *Endpoint) serveConn(nc net.Conn) {
	defer e.wg.Done()
	rank, nodes, err := readHandshake(nc)
	if err != nil || nodes != e.nodes || rank < 0 || rank >= e.nodes || rank == e.self {
		e.mu.Lock()
		delete(e.open, nc)
		e.mu.Unlock()
		nc.Close()
		return
	}
	e.mu.Lock()
	delete(e.open, nc)
	if e.closed() {
		e.mu.Unlock()
		nc.Close()
		return
	}
	c, rerr := e.registerConnLocked(nc, rank)
	e.mu.Unlock()
	if rerr != nil {
		return
	}
	if err := e.pl.register(c); err != nil {
		e.unregisterUnpolled(c)
	}
}

// LostFrames counts frames Send accepted that were later abandoned: the
// already-written prefix of a failed flush batch (those bytes may or
// may not have reached the peer — re-sending could duplicate, so they
// can only be written off), plus any failure stash still unconsumed
// when Close runs. Frames a stream failure left guaranteed-undelivered
// are NOT counted here while the endpoint is open: they are stashed and
// re-sent on the redialed stream, so a transient failure with a
// successful redial is loss-free. The transport cannot return any of
// this as Send errors — it fails after Send has returned — so a nonzero
// count here is the loss signal operators should watch. Writes racing a
// stream failure may be counted even if their bytes made it out: the
// count is an upper bound on loss, never an undercount.
func (e *Endpoint) LostFrames() uint64 { return e.lost.Load() }

// MaxPayload implements fabric.PayloadLimiter: the codec's frame ceiling
// bounds what one Send can carry.
func (e *Endpoint) MaxPayload() int { return fabric.MaxPayloadBytes }

// RegisterMetrics implements fabric.MetricSource: the poller's
// scalability counters join reg under prefix (the rail driver passes
// "node<rank>.rail.<name>"), next to the portable driver counters.
func (e *Endpoint) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterGauge(prefix+".pollers", "event-loop goroutines currently running", func() uint64 { return uint64(e.nPollers.Load()) })
	reg.RegisterGauge(prefix+".conns", "registered TCP streams currently open", func() uint64 { return uint64(e.nConns.Load()) })
	reg.RegisterCounter(prefix+".coalesced_frames", "frames flushed to the kernel via coalesced batch writes", e.coalesced.Load)
	reg.RegisterCounter(prefix+".flush_syscalls", "write(2) calls issued by the send flush path", e.flushSyscalls.Load)
	reg.RegisterCounter(prefix+".poller_parks", "times the poller left its non-blocking spin phase and parked in the netpoller", e.parks.Load)
}

func (e *Endpoint) closed() bool { return e.state.Load() != 0 }

// Close implements fabric.Endpoint: stop accepting, ask every stream to
// finish its queue and poll the flush progress (the poller keeps
// writing) so frames sent before Close still reach their peers (bounded
// by closeDrainTimeout against a peer that stopped reading), then stop
// the poller — which tears down the streams — wake blocked receivers,
// and wait for every goroutine. Packets already received remain
// pollable. Idempotent.
func (e *Endpoint) Close() error {
	if !e.state.CompareAndSwap(0, 1) {
		return nil
	}
	if e.ln != nil {
		e.ln.Close()
	}
	e.mu.Lock()
	for c := range e.open {
		c.Close() // handshake-phase streams carry no frames yet
	}
	conns := make([]*conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	for _, c := range conns {
		c.markClosing()
	}
	deadline := time.Now().Add(closeDrainTimeout)
	for {
		left := int64(0)
		for _, c := range conns {
			left += c.pendingFrames.Load()
		}
		if left == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	e.pl.stop()
	close(e.done)
	e.wg.Wait()
	// Stashes that never met a successful redial are abandoned now: no
	// poller is left to bank more, so the count is final.
	e.mu.Lock()
	for r, s := range e.stash {
		e.lost.Add(uint64(len(s.ends)))
		delete(e.stash, r)
	}
	e.mu.Unlock()
	return nil
}

// writeHandshake sends the one-time stream preamble.
func writeHandshake(c net.Conn, self, nodes int) error {
	var b [hsBytes]byte
	put := func(off int, v uint32) {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
	}
	put(0, hsMagic)
	put(4, hsVersion)
	put(8, uint32(self))
	put(12, uint32(nodes))
	_, err := c.Write(b[:])
	return err
}

// readHandshake validates a stream preamble and returns the peer identity.
func readHandshake(c net.Conn) (rank, nodes int, err error) {
	var b [hsBytes]byte
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	defer c.SetReadDeadline(time.Time{})
	if _, err = io.ReadFull(c, b[:]); err != nil {
		return 0, 0, err
	}
	get := func(off int) uint32 {
		return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
	}
	if get(0) != hsMagic {
		return 0, 0, fmt.Errorf("tcpfab: bad handshake magic %#x", get(0))
	}
	if get(4) != hsVersion {
		return 0, 0, fmt.Errorf("tcpfab: handshake version %d, want %d", get(4), hsVersion)
	}
	return int(int32(get(8))), int(int32(get(12))), nil
}
