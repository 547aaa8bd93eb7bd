// Package udpfab is a real transport backend for the fabric layer over
// unreliable UDP datagrams: the one in-tree fabric whose wire genuinely
// loses, duplicates and reorders, with a reliability sublayer that earns
// the fabric contract (reliable, complete, exactly-once) back on top of
// it — the shape of the paper's NIC drivers over lossy interconnects.
//
// Each endpoint owns one UDP socket. A packet accepted by Send is
// serialized into a single datagram — the 64-byte reliability header of
// header.go followed by one fabric codec frame — assigned a per-peer
// sequence number, and tracked in a bounded retransmit window until the
// peer acknowledges it. Acks are cumulative plus a 64-bit selective
// mask, piggybacked on every outbound data datagram and flushed as pure
// acks by a timer otherwise. A retransmit timer resends unacknowledged
// datagrams with per-frame exponential backoff up to a cap, starting
// from a per-peer adaptive timeout (Jacobson SRTT/RTTVAR measured from
// ack round trips, falling back to a fixed base until samples exist);
// the receive
// side suppresses the duplicates this necessarily creates and rejects
// truncated, corrupt or alien datagrams in a zero-allocation packet
// filter before any decode. Sender incarnations carry a random session
// id, so a restarted peer's stale state can never corrupt a fresh
// stream.
//
// Delivery is exactly-once and complete while the process pair lives;
// per-pair arrival order is NOT guaranteed (datagrams reorder, and
// delivery is on arrival, not in sequence order) — exactly the portable
// fabric contract, whose consumers reorder by packet sequence number.
// Frames still unacknowledged when Close's bounded drain gives up are
// counted in LostFrames, like tcpfab's abandoned stream buffers.
package udpfab

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/telemetry"
	"pioman/internal/wire"
)

const (
	// defaultWindow bounds how many datagrams per peer may be in flight
	// (sent, unacknowledged) at once; sends beyond it queue. The live
	// bound is per-peer AIMD below this ceiling: halved on fresh loss
	// evidence, grown back one frame per cleanly acked window.
	defaultWindow = 512

	// cwndFloorFrames floors the AIMD decrease: even under persistent
	// loss the window keeps this many probe frames in flight, so an ack
	// from a recovering peer always has something to acknowledge. A
	// configured window smaller than the floor is its own floor (tiny
	// test windows stay exact).
	cwndFloorFrames = 16

	// defaultRTO is the first retransmit timeout of a fresh datagram
	// toward a peer with no round-trip samples yet; defaultRTOMax caps
	// the exponential backoff between resends of the same datagram,
	// which is what bounds a retransmit storm against a dead or
	// partitioned peer. Once acks provide samples, the initial timeout
	// adapts per peer (SRTT/RTTVAR, see rtoLocked) between minAdaptiveRTO
	// and the cap.
	defaultRTO    = 20 * time.Millisecond
	defaultRTOMax = 250 * time.Millisecond

	// minAdaptiveRTO floors the measured retransmit timeout: on a
	// loopback-fast path SRTT+4·RTTVAR computes to microseconds, where a
	// timeout under the tick granularity would resend everything the
	// timer ever inspects.
	minAdaptiveRTO = 5 * time.Millisecond

	// tickPeriod is the retransmit/ack timer cadence: the granularity of
	// resend deadlines and the worst-case delay of a pure-ack flush.
	tickPeriod = 5 * time.Millisecond

	// ackEvery forces a pure ack after this many unacknowledged data
	// arrivals, so a one-directional bulk flow is acked faster than the
	// timer cadence and the sender's window keeps sliding.
	ackEvery = 16

	// closeDrainTimeout bounds how long Close waits for retransmission
	// to flush accepted frames toward a peer that stopped acking;
	// drainStallTimeout gives up earlier when no ack progress at all is
	// being made (the peer is gone, not slow).
	closeDrainTimeout = 5 * time.Second
	drainStallTimeout = 500 * time.Millisecond

	// readBufBytes sizes the receive buffer: one maximum datagram.
	readBufBytes = 64 << 10
)

// Config describes one process's attachment to a UDP fabric.
type Config struct {
	// Self is this endpoint's rank.
	Self int
	// Nodes is the cluster size.
	Nodes int
	// Listen is the UDP address to bind (e.g. "127.0.0.1:0", ":9777").
	// Empty binds an ephemeral port on all interfaces; the socket both
	// sends and receives, so every endpoint binds one.
	Listen string
	// Peers maps rank to address for peers this process may have to
	// contact first. Peers that always speak first can be omitted: their
	// address is learned from their first valid datagram.
	Peers map[int]string

	// The reliability tuning below is unexported: every shipped endpoint
	// runs the defaults, and only this package's tests (and NewLocalChaos)
	// set another value.
	//
	// window bounds in-flight (unacknowledged) datagrams per peer; zero
	// selects defaultWindow. Sends beyond it queue without blocking and
	// tick the window_stalls counter.
	window int
	// rto is the retransmit timeout used toward a peer before any ack
	// round trip has been measured; rtoMax caps the per-frame
	// exponential backoff. Once acks provide samples the timeout adapts
	// per peer — Jacobson SRTT/RTTVAR, floored at minAdaptiveRTO and
	// capped at rtoMax — so a low-RTT link recovers losses faster than
	// the fixed base and a high-RTT link stops retransmitting frames
	// whose acks are merely still in flight. Zero selects the defaults.
	rto, rtoMax time.Duration
	// chaos, when non-nil, injects seeded datagram-level disorder (drop,
	// duplication, reordering, corruption, latency) into this endpoint's
	// transmit path, beneath the reliability sublayer — every injected
	// failure is absorbed by retransmission and duplicate suppression
	// before the fabric contract is visible above.
	chaos *ChaosParams
}

// outFrame is one sent-but-unacknowledged datagram: the sealed bytes
// (pooled), its resend deadline and its current backoff.
type outFrame struct {
	seq        uint64
	buf        []byte
	nextResend time.Time
	backoff    time.Duration
}

// peerState is everything the endpoint tracks about one peer: the send
// window toward it and the receive/dedup state of its inbound stream.
// All fields are guarded by Endpoint.mu.
type peerState struct {
	rank    int
	addr    netip.AddrPort
	hasAddr bool

	// Transmit side: nextSeq numbers outbound datagrams from 1; txBase
	// is the lowest seq the peer has not cumulatively acked (what the
	// header's base field declares); flight holds the bounded window;
	// pending queues sends beyond it in FIFO order.
	nextSeq uint64
	txBase  uint64
	flight  map[uint64]*outFrame
	pending []*outFrame

	// AIMD congestion control under the configured window: cwnd is the
	// live in-flight bound (starts at and never exceeds Endpoint.window),
	// cutSeq fences loss events — only a retransmitted frame first sent
	// after the last cut halves the window again, so one loss burst costs
	// one halving no matter how many frames it hit — and acked counts
	// cleanly retired frames toward the next additive +1 (one full
	// window acked without a cut grows cwnd by one frame).
	cwnd   int
	cutSeq uint64
	acked  int

	// Round-trip estimation (Jacobson): srtt/rttvar drive the adaptive
	// retransmit timeout of fresh frames (rtoLocked); srtt == 0 means no
	// sample yet. rttSeq is the one in-flight frame currently being
	// timed (0 = none) and rttSentAt its first-transmission stamp.
	// Timing runs from the FIRST transmission even if the frame is later
	// retransmitted — the opposite of Karn's discard rule — because with
	// a base timeout below the true RTT every timed frame is
	// retransmitted before its ack returns and discarding would starve
	// measurement forever. Measuring from the first transmission can
	// only overestimate the round trip (the ack, whichever copy
	// triggered it, cannot arrive in less than one true RTT), which errs
	// on the side of fewer retransmissions and converges once the
	// timeout clears the real RTT.
	srtt      time.Duration
	rttvar    time.Duration
	rttSeq    uint64
	rttSentAt time.Time

	// Receive side, keyed by the sender incarnation: rxCum is the
	// highest contiguously received seq of session rxSess, rxAhead the
	// out-of-order seqs beyond it (already delivered — membership is the
	// duplicate filter), ackOwed the data arrivals since the last ack
	// went out.
	rxSess  uint64
	rxCum   uint64
	rxAhead map[uint64]struct{}
	ackOwed int
}

// Endpoint is one process's port on a UDP fabric.
type Endpoint struct {
	self, nodes int
	window      int
	rto, rtoMax time.Duration

	conn    *net.UDPConn
	session uint64

	mu        sync.Mutex
	peers     []*peerState // indexed by rank, created on first contact
	peerAddrs map[int]string
	// freeFrames recycles window frames (guarded by mu): Send draws one
	// per datagram, and a frame comes back where it retires — acked in
	// applyAckLocked, or abandoned by Close.
	freeFrames []*outFrame
	// ackBuf is the one pure-ack datagram sendAckLocked seals and writes
	// (guarded by mu); the socket write copies it into the kernel.
	ackBuf [dgHeaderBytes]byte

	lost  atomic.Uint64
	state atomic.Int32  // 0 open, 1 closed
	done  chan struct{} // closed on Close; wakes receivers, stops the timer
	inbox *fabric.Inbox
	wg    sync.WaitGroup

	chaos *chaosState

	// Reliability-sublayer health counters, registered under the rail
	// prefix via RegisterMetrics (fabric.MetricSource).
	retransmits  telemetry.Counter
	acksSent     telemetry.Counter
	acksRecv     telemetry.Counter
	dupDropped   telemetry.Counter
	rejected     telemetry.Counter
	windowStalls telemetry.Counter
	badAcks      telemetry.Counter
}

// New opens an endpoint per cfg, binds its socket and starts its reader
// and retransmit timer. The actual bound address (useful with port 0)
// is Addr().
func New(cfg Config) (*Endpoint, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("udpfab: cluster needs at least one node")
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		return nil, fmt.Errorf("udpfab: rank %d outside cluster of %d", cfg.Self, cfg.Nodes)
	}
	listen := cfg.Listen
	if listen == "" {
		listen = ":0"
	}
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("udpfab: listen %s: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udpfab: listen %s: %w", listen, err)
	}
	e := &Endpoint{
		self:      cfg.Self,
		nodes:     cfg.Nodes,
		window:    cfg.window,
		rto:       cfg.rto,
		rtoMax:    cfg.rtoMax,
		conn:      conn,
		peers:     make([]*peerState, cfg.Nodes),
		peerAddrs: make(map[int]string, len(cfg.Peers)),
		done:      make(chan struct{}),
		inbox:     fabric.NewInbox(),
	}
	if e.window <= 0 {
		e.window = defaultWindow
	}
	if e.rto <= 0 {
		e.rto = defaultRTO
	}
	if e.rtoMax < e.rto {
		e.rtoMax = defaultRTOMax
	}
	if e.rtoMax < e.rto {
		e.rtoMax = e.rto
	}
	for e.session == 0 {
		e.session = rand.Uint64()
	}
	for r, a := range cfg.Peers {
		e.peerAddrs[r] = a
	}
	if cfg.chaos != nil {
		e.chaos = newChaosState(*cfg.chaos)
	}
	e.wg.Add(2)
	go e.readLoop()
	go e.tickLoop()
	return e, nil
}

// Addr returns the socket's actual local address.
func (e *Endpoint) Addr() net.Addr { return e.conn.LocalAddr() }

// SetPeerAddr records rank's address (e.g. learned out of band after
// both sides bound ephemeral ports). A peer's address is also learned —
// and refreshed — from every valid datagram it sends, so a peer that
// restarts on a new port re-routes the window automatically.
func (e *Endpoint) SetPeerAddr(rank int, addr string) {
	e.mu.Lock()
	e.peerAddrs[rank] = addr
	if ps := e.peers[rank]; ps != nil {
		// Re-resolve immediately: the caller knows better than a stale
		// learned address (the receiver-restart path), and frames already
		// in flight must keep retransmitting toward the new address
		// without waiting for a fresh Send to trigger resolution.
		ps.hasAddr = false
		_ = e.resolveLocked(ps)
	}
	e.mu.Unlock()
}

// Self implements fabric.Endpoint.
func (e *Endpoint) Self() int { return e.self }

// Nodes implements fabric.Endpoint.
func (e *Endpoint) Nodes() int { return e.nodes }

// SendCaptures implements fabric.SendCapturer: Send serializes
// cross-rank packets into their datagram and copies self-deliveries
// before returning.
func (e *Endpoint) SendCaptures() bool { return true }

// MaxPayload implements fabric.PayloadLimiter: one packet must fit one
// datagram after the reliability header and codec framing.
func (e *Endpoint) MaxPayload() int { return maxPayloadBytes }

// LostFrames implements fabric.LossCounter: frames accepted by Send and
// abandoned unacknowledged by Close's bounded drain.
func (e *Endpoint) LostFrames() uint64 { return e.lost.Load() }

// PollBatch implements fabric.Endpoint: one inbox lock round trip hands
// out a FIFO run of delivered packets. Only datagrams the reader has
// already accepted and decoded count.
func (e *Endpoint) PollBatch(into []*wire.Packet) int { return e.inbox.PopRun(into) }

// GoroutineFed implements fabric.GoroutineFed: PollBatch only pops what
// readLoop pushed, so a polling caller must let the reader run.
func (e *Endpoint) GoroutineFed() bool { return true }

// BlockingRecv implements fabric.Endpoint.
func (e *Endpoint) BlockingRecv(timeout time.Duration) *wire.Packet {
	return e.inbox.Recv(timeout, e.done)
}

// Send implements fabric.Endpoint: the packet is serialized into one
// sealed datagram before return (payload captured), entered into the
// peer's retransmit window — or its overflow queue when the window is
// full, so Send never blocks — and transmitted. Delivery is then the
// retransmit machinery's business until the peer acks.
func (e *Endpoint) Send(p *wire.Packet) error {
	if e.closed() {
		return fabric.ErrClosed
	}
	if p.Dst < 0 || p.Dst >= e.nodes {
		return fmt.Errorf("udpfab: send to rank %d outside cluster of %d", p.Dst, e.nodes)
	}
	if p.WireLen <= 0 {
		p.WireLen = len(p.Payload)
	}
	if len(p.Payload) > maxPayloadBytes {
		return fmt.Errorf("udpfab: %d-byte payload exceeds datagram frame limit %d", len(p.Payload), maxPayloadBytes)
	}
	if p.Dst == e.self {
		e.inbox.Push(fabric.CapturePacket(p))
		return nil
	}
	// Serialize outside the lock: the window bookkeeping is the only
	// contended part.
	size := dgHeaderBytes + fabric.EncodedSize(p)
	buf := bufpool.Get(size)[:dgHeaderBytes]
	buf = fabric.AppendPacket(buf, p)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed() {
		// Racing Close: the drain snapshot may already have run.
		bufpool.Put(buf)
		return fabric.ErrClosed
	}
	ps := e.peer(p.Dst)
	if !ps.hasAddr {
		if err := e.resolveLocked(ps); err != nil {
			bufpool.Put(buf)
			return err
		}
	}
	f := e.newFrameLocked(buf)
	f.seq = ps.nextSeq
	ps.nextSeq++
	f.backoff = e.rtoLocked(ps)
	if len(ps.flight) < ps.cwnd {
		ps.flight[f.seq] = f
		e.transmitLocked(ps, f)
		e.armRTTSampleLocked(ps, f)
	} else {
		e.windowStalls.Add(1)
		ps.pending = append(ps.pending, f)
	}
	return nil
}

// newFrameLocked wraps a sealed-to-be datagram in a window frame from
// the freelist. Caller holds e.mu.
func (e *Endpoint) newFrameLocked(buf []byte) *outFrame {
	var f *outFrame
	if n := len(e.freeFrames); n > 0 {
		f = e.freeFrames[n-1]
		e.freeFrames = e.freeFrames[:n-1]
	} else {
		f = new(outFrame)
	}
	f.buf = buf
	return f
}

// retireLocked returns a frame that left the window for good — acked or
// abandoned — to the pools: its datagram to bufpool, the frame to the
// freelist, which keeps at most one window's worth. Caller holds e.mu.
func (e *Endpoint) retireLocked(f *outFrame) {
	bufpool.Put(f.buf)
	*f = outFrame{}
	if len(e.freeFrames) < e.window {
		e.freeFrames = append(e.freeFrames, f)
	}
}

// peer returns rank's state, creating it on first contact. Caller holds
// e.mu.
func (e *Endpoint) peer(rank int) *peerState {
	ps := e.peers[rank]
	if ps == nil {
		ps = &peerState{
			rank:    rank,
			nextSeq: 1,
			txBase:  1,
			cwnd:    e.window,
			flight:  make(map[uint64]*outFrame),
			rxAhead: make(map[uint64]struct{}),
		}
		e.peers[rank] = ps
	}
	return ps
}

// resolveLocked resolves ps's configured address. Caller holds e.mu.
func (e *Endpoint) resolveLocked(ps *peerState) error {
	addr, ok := e.peerAddrs[ps.rank]
	if !ok {
		return fmt.Errorf("udpfab: no address for rank %d and no datagram received from it", ps.rank)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udpfab: resolve rank %d at %s: %w", ps.rank, addr, err)
	}
	// Unmap IPv4-in-IPv6 (net.ResolveUDPAddr yields ::ffff:a.b.c.d for
	// v4 literals, which an IPv4-bound socket refuses to write to).
	ap := ua.AddrPort()
	ps.addr, ps.hasAddr = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), true
	return nil
}

// transmitLocked seals and sends one window frame, patching the
// piggybacked ack fields to the current receive state — retransmissions
// therefore carry fresh acks for free. Caller holds e.mu.
func (e *Endpoint) transmitLocked(ps *peerState, f *outFrame) {
	h := dgHeader{
		dtype:      dgData,
		src:        e.self,
		session:    e.session,
		seq:        f.seq,
		base:       ps.txBase,
		ackSession: ps.rxSess,
		cumAck:     ps.rxCum,
		sack:       e.sackBitsLocked(ps),
		flen:       len(f.buf) - dgHeaderBytes,
	}
	putHeader(f.buf, &h)
	sealDatagram(f.buf)
	ps.ackOwed = 0
	f.nextResend = time.Now().Add(f.backoff)
	e.transmit(f.buf, ps.addr)
}

// sendAckLocked emits one pure-ack datagram for ps's inbound stream.
// Caller holds e.mu.
func (e *Endpoint) sendAckLocked(ps *peerState) {
	if ps.rxSess == 0 {
		return // nothing ever received: nothing to ack
	}
	b := &e.ackBuf
	h := dgHeader{
		dtype:      dgAck,
		src:        e.self,
		session:    e.session,
		base:       ps.txBase,
		ackSession: ps.rxSess,
		cumAck:     ps.rxCum,
		sack:       e.sackBitsLocked(ps),
	}
	putHeader(b[:], &h)
	sealDatagram(b[:])
	ps.ackOwed = 0
	e.acksSent.Add(1)
	e.transmit(b[:], ps.addr)
}

// sackBitsLocked builds the selective-ack mask: bit i set means seq
// rxCum+1+i has been received out of order. Caller holds e.mu.
func (e *Endpoint) sackBitsLocked(ps *peerState) uint64 {
	var bits uint64
	for s := range ps.rxAhead {
		if d := s - ps.rxCum; d >= 1 && d <= 64 {
			bits |= 1 << (d - 1)
		}
	}
	return bits
}

// transmit writes one sealed datagram, through the chaos layer when one
// is configured.
func (e *Endpoint) transmit(b []byte, addr netip.AddrPort) {
	if e.chaos != nil {
		e.chaos.transmit(e, b, addr)
		return
	}
	e.conn.WriteToUDPAddrPort(b, addr)
}

// readLoop receives datagrams until the socket closes. One reused
// buffer: every accepted frame is decoded straight into pooled storage
// by handleDatagram.
func (e *Endpoint) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, readBufBytes)
	for {
		n, from, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		e.handleDatagram(buf[:n], from)
	}
}

// handleDatagram validates, acks and delivers one received datagram —
// the whole receive path of the reliability sublayer. Rejected
// datagrams (truncated, corrupt, alien) cost one counter tick and
// nothing else.
func (e *Endpoint) handleDatagram(b []byte, from netip.AddrPort) {
	var h dgHeader
	if !parseDatagram(b, e.self, e.nodes, &h) {
		e.rejected.Add(1)
		return
	}
	var deliver *wire.Packet
	e.mu.Lock()
	ps := e.peer(h.src)
	// The latest valid datagram wins the route: a peer that rebinds
	// keeps working without reconfiguration, and the checksum gate makes
	// blind spoofing of the route at least require a valid session's
	// traffic to copy.
	ps.addr, ps.hasAddr = netip.AddrPortFrom(from.Addr().Unmap(), from.Port()), true

	if h.ackSession == e.session {
		e.acksRecv.Add(1)
		if h.cumAck >= ps.nextSeq {
			// Acknowledges a sequence this incarnation never sent:
			// corrupt peer state or a replayed datagram. Ignore it —
			// trusting it would tear frames out of the window that were
			// never delivered.
			e.badAcks.Add(1)
		} else {
			e.applyAckLocked(ps, h.cumAck, h.sack)
		}
	}

	if h.dtype == dgData {
		if h.session != ps.rxSess {
			// New sender incarnation: adopt its stream where it says it
			// begins. Stale dedup state from the previous incarnation
			// would otherwise silently eat the new stream's sequences.
			ps.rxSess = h.session
			ps.rxCum = 0
			if h.base > 0 {
				ps.rxCum = h.base - 1
			}
			clear(ps.rxAhead)
		} else if h.base > 0 && h.base-1 > ps.rxCum {
			// The sender will never retransmit below base: everything
			// under it is cumulatively acknowledged state we may drop —
			// this is what un-sticks a receiver that restarted mid-window
			// behind the same rank (its cum restarts at 0).
			ps.rxCum = h.base - 1
			for s := range ps.rxAhead {
				if s <= ps.rxCum {
					delete(ps.rxAhead, s)
				}
			}
		}
		ps.ackOwed++
		_, ahead := ps.rxAhead[h.seq]
		if h.seq <= ps.rxCum || ahead {
			// Already delivered: a retransmission whose original (or
			// whose ack) was lost, or a chaos duplicate. Re-acking is the
			// cure, so the owed ack above still counts.
			e.dupDropped.Add(1)
		} else {
			p, err := fabric.DecodePacketPooled(b[dgHeaderBytes:])
			if err != nil {
				// The checksum passed but the inner frame is malformed:
				// not a transit error, a misbehaving sender. Reject.
				e.rejected.Add(1)
			} else {
				p.Src = h.src // the validated header identity wins
				if h.seq == ps.rxCum+1 {
					ps.rxCum++
					for {
						if _, ok := ps.rxAhead[ps.rxCum+1]; !ok {
							break
						}
						delete(ps.rxAhead, ps.rxCum+1)
						ps.rxCum++
					}
				} else {
					ps.rxAhead[h.seq] = struct{}{}
				}
				deliver = p
			}
		}
		if ps.ackOwed >= ackEvery {
			e.sendAckLocked(ps)
		}
	}
	e.mu.Unlock()
	if deliver != nil {
		e.inbox.Push(deliver)
	}
}

// rtoLocked returns the retransmit timeout a fresh frame toward ps
// starts with: the configured base before any round trip has been
// measured, afterwards the Jacobson estimate SRTT + 4·RTTVAR clamped
// between minAdaptiveRTO and the backoff cap. Caller holds e.mu.
func (e *Endpoint) rtoLocked(ps *peerState) time.Duration {
	if ps.srtt == 0 {
		return e.rto
	}
	rto := ps.srtt + 4*ps.rttvar
	if rto < minAdaptiveRTO {
		rto = minAdaptiveRTO
	}
	if rto > e.rtoMax {
		rto = e.rtoMax
	}
	return rto
}

// armRTTSampleLocked starts timing f's round trip if no frame toward ps
// is being timed already — one outstanding sample per peer keeps the
// bookkeeping O(1). Caller holds e.mu; f was just transmitted for the
// first time.
func (e *Endpoint) armRTTSampleLocked(ps *peerState, f *outFrame) {
	if ps.rttSeq == 0 {
		ps.rttSeq = f.seq
		ps.rttSentAt = time.Now()
	}
}

// observeRTTLocked folds one measured round trip into ps's estimator:
// RTTVAR += (|rtt−SRTT| − RTTVAR)/4, SRTT += (rtt−SRTT)/8, the
// Jacobson/Karels gains. Caller holds e.mu.
func (e *Endpoint) observeRTTLocked(ps *peerState, rtt time.Duration) {
	if ps.srtt == 0 {
		ps.srtt, ps.rttvar = rtt, rtt/2
		return
	}
	d := rtt - ps.srtt
	if d < 0 {
		d = -d
	}
	ps.rttvar += (d - ps.rttvar) / 4
	ps.srtt += (rtt - ps.srtt) / 8
}

// cwndFloor is the AIMD decrease floor: min(cwndFloorFrames, the
// configured window), so a deliberately tiny window is never inflated
// by the floor.
func (e *Endpoint) cwndFloor() int {
	if e.window < cwndFloorFrames {
		return e.window
	}
	return cwndFloorFrames
}

// applyAckLocked retires acknowledged frames from ps's window and
// promotes queued sends into the space. Caller holds e.mu and has
// validated cum against nextSeq.
func (e *Endpoint) applyAckLocked(ps *peerState, cum, sack uint64) {
	if ps.rttSeq != 0 {
		covered := cum >= ps.rttSeq
		if !covered && ps.rttSeq-cum <= 64 {
			covered = sack&(1<<(ps.rttSeq-cum-1)) != 0
		}
		if covered {
			e.observeRTTLocked(ps, time.Since(ps.rttSentAt))
			ps.rttSeq = 0
		}
	}
	retired := 0
	for s := ps.txBase; s <= cum; s++ {
		if f := ps.flight[s]; f != nil {
			delete(ps.flight, s)
			e.retireLocked(f)
			retired++
		}
	}
	if cum+1 > ps.txBase {
		ps.txBase = cum + 1
	}
	for i := uint64(0); i < 64; i++ {
		if sack&(1<<i) == 0 {
			continue
		}
		if f := ps.flight[cum+1+i]; f != nil {
			delete(ps.flight, cum+1+i)
			e.retireLocked(f)
			retired++
		}
	}
	// Additive increase: a full window retired without fresh loss (the
	// cut resets the count) earns one frame back, up to the configured
	// ceiling.
	if ps.acked += retired; ps.acked >= ps.cwnd {
		if ps.cwnd < e.window {
			ps.cwnd++
		}
		ps.acked = 0
	}
	for len(ps.flight) < ps.cwnd && len(ps.pending) > 0 {
		f := ps.pending[0]
		ps.pending[0] = nil
		ps.pending = ps.pending[1:]
		// The frame's starting timeout was fixed at Send; refresh it with
		// whatever the estimator has learned while it sat queued.
		f.backoff = e.rtoLocked(ps)
		ps.flight[f.seq] = f
		e.transmitLocked(ps, f)
		e.armRTTSampleLocked(ps, f)
	}
}

// tickLoop drives retransmission and ack flushing until Close.
func (e *Endpoint) tickLoop() {
	defer e.wg.Done()
	t := time.NewTicker(tickPeriod)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
		}
		e.tick()
	}
}

// tick resends every flight frame past its deadline (doubling its
// backoff up to the cap) and flushes owed acks.
func (e *Endpoint) tick() {
	now := time.Now()
	e.mu.Lock()
	for _, ps := range e.peers {
		if ps == nil || !ps.hasAddr {
			continue
		}
		for _, f := range ps.flight {
			if now.After(f.nextResend) {
				if f.seq >= ps.cutSeq {
					// Fresh loss evidence — the frame was first sent after
					// the last cut. Multiplicative decrease, one halving
					// per loss burst: everything already in flight is
					// fenced behind the new cutSeq.
					ps.cutSeq = ps.nextSeq
					ps.acked = 0
					if ps.cwnd /= 2; ps.cwnd < e.cwndFloor() {
						ps.cwnd = e.cwndFloor()
					}
				}
				f.backoff *= 2
				if f.backoff > e.rtoMax {
					f.backoff = e.rtoMax
				}
				e.retransmits.Add(1)
				e.transmitLocked(ps, f)
			}
		}
		if ps.ackOwed > 0 {
			e.sendAckLocked(ps)
		}
	}
	e.mu.Unlock()
}

// RegisterMetrics implements fabric.MetricSource: the reliability
// sublayer's health counters join reg under prefix (the rail driver
// passes "node<rank>.rail.<name>"), next to the portable driver
// counters.
func (e *Endpoint) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(prefix+".retransmits", "data datagrams resent by the retransmit timer", e.retransmits.Load)
	reg.RegisterCounter(prefix+".acks_sent", "pure ack datagrams sent", e.acksSent.Load)
	reg.RegisterCounter(prefix+".acks_recv", "ack-bearing datagrams processed", e.acksRecv.Load)
	reg.RegisterCounter(prefix+".dup_dropped", "duplicate data datagrams suppressed", e.dupDropped.Load)
	reg.RegisterCounter(prefix+".rejected_datagrams", "datagrams rejected by header validation", e.rejected.Load)
	reg.RegisterCounter(prefix+".window_stalls", "sends queued behind a full retransmit window", e.windowStalls.Load)
	reg.RegisterCounter(prefix+".bad_acks", "acks ignored as stale or acknowledging unsent sequences", e.badAcks.Load)
	reg.RegisterGauge(prefix+".window_size", "live AIMD send window (frames, smallest across contacted peers)", func() uint64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		w := e.window
		for _, ps := range e.peers {
			if ps != nil && ps.cwnd < w {
				w = ps.cwnd
			}
		}
		return uint64(w)
	})
}

func (e *Endpoint) closed() bool { return e.state.Load() != 0 }

// Close implements fabric.Endpoint: refuse new sends, let the
// retransmit machinery drain accepted frames toward still-acking peers
// (bounded overall, and cut short when no ack progress is being made at
// all), count what could not be delivered in LostFrames, then stop the
// timer, close the socket and wake every blocked receiver. Packets
// already received remain pollable. Idempotent.
func (e *Endpoint) Close() error {
	if !e.state.CompareAndSwap(0, 1) {
		return nil
	}
	deadline := time.Now().Add(closeDrainTimeout)
	lastProgress := time.Now()
	lastCount := -1
	for {
		e.mu.Lock()
		n := 0
		for _, ps := range e.peers {
			if ps != nil {
				n += len(ps.flight) + len(ps.pending)
			}
		}
		e.mu.Unlock()
		if n == 0 {
			break
		}
		now := time.Now()
		if n != lastCount {
			lastCount, lastProgress = n, now
		}
		if now.After(deadline) || now.Sub(lastProgress) > drainStallTimeout {
			break
		}
		time.Sleep(tickPeriod)
	}
	e.mu.Lock()
	for _, ps := range e.peers {
		if ps == nil {
			continue
		}
		// Flush the ack still owed for recent arrivals before the socket
		// goes away: a closer whose own drain finishes instantly would
		// otherwise strand the peer's last in-flight frames unacked,
		// stalling that peer's drain and counting delivered frames as
		// lost.
		if ps.ackOwed > 0 && ps.hasAddr {
			e.sendAckLocked(ps)
		}
		for s, f := range ps.flight {
			delete(ps.flight, s)
			e.lost.Add(1)
			e.retireLocked(f)
		}
		for i, f := range ps.pending {
			ps.pending[i] = nil
			e.lost.Add(1)
			e.retireLocked(f)
		}
		ps.pending = nil
	}
	e.mu.Unlock()
	close(e.done)
	e.conn.Close()
	e.wg.Wait()
	return nil
}
