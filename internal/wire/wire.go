// Package wire simulates the cluster fabric: nodes connected by
// full-duplex links with configurable one-way latency and bandwidth
// (defaults model the paper's MYRI-10G testbed).
//
// The simulation separates the two resources the paper's trade-offs are
// about:
//
//   - CPU time (copies, PIO, request posting) is charged by busy-waiting on
//     the core that executes the operation — see internal/ptime.
//   - Wire time (propagation + serialization) is charged with timestamps:
//     a packet injected at time t arrives at max(t, linkFree) + latency +
//     size/bandwidth, and the destination only observes it once the wall
//     clock passes that timestamp.
//
// This keeps wire transfers truly asynchronous (they cost no CPU anywhere)
// while submission and reception costs land on whichever core performs
// them, which is exactly the degree of freedom PIOMan exploits.
package wire

import (
	"fmt"
	"sync/atomic"
	"time"

	"pioman/internal/sync2"
)

// PacketKind distinguishes protocol traffic on the wire.
type PacketKind uint8

// Packet kinds used by the engine's protocols.
const (
	PktEager   PacketKind = iota // eager data (copied through registered buffers)
	PktRTS                       // rendezvous request-to-send handshake
	PktCTS                       // rendezvous clear-to-send acknowledgement
	PktData                      // rendezvous zero-copy payload
	PktCtrl                      // control (barrier, shutdown, tests)
	PktAggr                      // aggregated eager packs (optimizer strategy)
	PktDataAck                   // rendezvous data acknowledgement (self-healing replay)
	PktPing                      // rail health probe (probation liveness check)
	PktPong                      // rail health probe response
)

// String implements fmt.Stringer.
func (k PacketKind) String() string {
	switch k {
	case PktEager:
		return "eager"
	case PktRTS:
		return "rts"
	case PktCTS:
		return "cts"
	case PktData:
		return "data"
	case PktCtrl:
		return "ctrl"
	case PktAggr:
		return "aggr"
	case PktDataAck:
		return "dack"
	case PktPing:
		return "ping"
	case PktPong:
		return "pong"
	}
	return fmt.Sprintf("pkt(%d)", uint8(k))
}

// Packet is one unit of traffic. Payload is owned by the receiver once
// delivered; senders must not reuse the slice after Send.
type Packet struct {
	Kind    PacketKind
	Src     int // source node id
	Dst     int // destination node id
	Tag     int // communication tag (matching)
	Seq     uint64
	MsgID   uint64 // correlates RTS/CTS/Data of one rendezvous
	Offset  int    // byte offset of a rendezvous data chunk (multirail)
	Payload []byte
	// WireLen is the size charged to the link; for RTS/CTS it is a small
	// header even though Payload may be nil.
	WireLen int
	// Pooled marks Payload as borrowed from the fabric buffer pool
	// (internal/fabric/bufpool). It is local bookkeeping, never encoded
	// on the wire: a transport that decodes an inbound frame into a
	// pooled buffer sets it, and the consumer that is done with the
	// packet hands buffer and struct back through fabric.ReleasePacket.
	// Packets left unreleased are simply reclaimed by the GC.
	Pooled bool
	// arriveAt is when the packet becomes visible at the destination.
	arriveAt time.Time
}

// ArriveAt exposes the modeled arrival time (for tests and tracing).
func (p *Packet) ArriveAt() time.Time { return p.arriveAt }

// LinkParams describes one direction of a point-to-point link.
type LinkParams struct {
	// Latency is the one-way propagation + NIC traversal delay.
	Latency time.Duration
	// BytesPerUS is serialization bandwidth (1250 B/µs = 1.25 GB/s).
	BytesPerUS float64
	// FragBytes is the wire fragmentation granularity. Packets no larger
	// than FragBytes interleave with an in-flight bulk transfer (they
	// wait at most one fragment slot instead of the whole transfer),
	// which is how Myrinet keeps a rendezvous handshake reactive while a
	// previous message's data is still on the wire. Packets larger than
	// FragBytes serialize FIFO behind the link's horizon. Zero selects
	// the 8 KiB default.
	FragBytes int
	// PacketGap is the fixed per-packet wire/NIC processing overhead
	// added to each packet's link occupancy: it bounds the small-message
	// packet rate of the rail independent of bandwidth. Zero means none.
	PacketGap time.Duration
}

// DefaultFragBytes is the fragmentation granularity when unset.
const DefaultFragBytes = 8 << 10

// MYRI10G returns the testbed link model: 1.5 µs one-way, 1.25 GB/s,
// 0.5 µs per-packet overhead (≈2M packets/s).
func MYRI10G() LinkParams {
	return LinkParams{
		Latency:    1500 * time.Nanosecond,
		BytesPerUS: 1250,
		FragBytes:  DefaultFragBytes,
		PacketGap:  500 * time.Nanosecond,
	}
}

// fragBytes returns the effective fragmentation granularity.
func (lp LinkParams) fragBytes() int {
	if lp.FragBytes <= 0 {
		return DefaultFragBytes
	}
	return lp.FragBytes
}

// FragSlot is the serialization time of one fragment — the worst-case
// queueing delay of an interleaved small packet.
func (lp LinkParams) FragSlot() time.Duration {
	return lp.SerializeCost(lp.fragBytes())
}

// SerializeCost returns the time n bytes occupy the link.
func (lp LinkParams) SerializeCost(n int) time.Duration {
	if n <= 0 || lp.BytesPerUS <= 0 {
		return 0
	}
	return time.Duration(float64(n) / lp.BytesPerUS * float64(time.Microsecond))
}

// link is one directed link with a serialization horizon.
type link struct {
	params LinkParams
	mu     sync2.SpinLock
	free   time.Time // next instant the link can begin serializing
}

// inbox is the arrival queue of one node: a time-ordered list protected by
// a spinlock plus a notification channel for blocking receivers. The
// head index (rather than re-slicing pkts[1:]) keeps the backing
// array's capacity across push/pop cycles, so steady traffic recycles
// one array instead of reallocating per packet.
type inbox struct {
	mu      sync2.SpinLock
	pkts    []*Packet // kept sorted by arriveAt (append is nearly sorted)
	head    int
	notify  chan struct{}
	dropped int
}

func newInbox() *inbox {
	return &inbox{notify: make(chan struct{}, 1)}
}

func (ib *inbox) push(p *Packet) {
	ib.mu.Lock()
	ib.pkts, ib.head = sync2.CompactQueue(ib.pkts, ib.head)
	// Insertion sort from the back: arrivals are almost always appended in
	// order because links serialize, so this is O(1) amortized.
	i := len(ib.pkts)
	ib.pkts = append(ib.pkts, p)
	for i > ib.head && ib.pkts[i-1].arriveAt.After(p.arriveAt) {
		ib.pkts[i] = ib.pkts[i-1]
		i--
	}
	ib.pkts[i] = p
	ib.mu.Unlock()
	sync2.Notify(ib.notify)
}

// pop returns the earliest packet whose arrival time has passed, or nil.
func (ib *inbox) pop(now time.Time) *Packet {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.head == len(ib.pkts) || ib.pkts[ib.head].arriveAt.After(now) {
		return nil
	}
	p := ib.pkts[ib.head]
	ib.pkts[ib.head] = nil // the receiver owns it now; drop the queue's alias
	ib.head++
	if ib.head == len(ib.pkts) {
		ib.pkts, ib.head = ib.pkts[:0], 0
	}
	return p
}

// popRun pops up to len(into) packets whose arrival time has passed, in
// arrival order, under one lock acquisition — the batched counterpart of
// pop, so a storm of small packets costs one spinlock round trip per run
// instead of per packet.
func (ib *inbox) popRun(now time.Time, into []*Packet) int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	n := 0
	for n < len(into) && ib.head < len(ib.pkts) && !ib.pkts[ib.head].arriveAt.After(now) {
		into[n] = ib.pkts[ib.head]
		ib.pkts[ib.head] = nil // the receiver owns it now; drop the queue's alias
		ib.head++
		n++
	}
	if ib.head == len(ib.pkts) {
		ib.pkts, ib.head = ib.pkts[:0], 0
	}
	return n
}

// earliest returns the arrival time of the next packet and whether one
// exists (regardless of whether it has arrived yet).
func (ib *inbox) earliest() (time.Time, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.head == len(ib.pkts) {
		return time.Time{}, false
	}
	return ib.pkts[ib.head].arriveAt, true
}

// Fabric connects n nodes with a full mesh of directed links.
type Fabric struct {
	n       int
	params  LinkParams
	links   []*link // index src*n+dst
	inboxes []*inbox
	closed  atomic.Bool
}

// NewFabric builds a fabric of n nodes with uniform link parameters.
func NewFabric(n int, params LinkParams) *Fabric {
	if n <= 0 {
		panic("wire: fabric needs at least one node")
	}
	f := &Fabric{n: n, params: params}
	f.links = make([]*link, n*n)
	f.inboxes = make([]*inbox, n)
	for i := range f.links {
		f.links[i] = &link{params: params}
	}
	for i := range f.inboxes {
		f.inboxes[i] = newInbox()
	}
	return f
}

// Nodes returns the number of nodes.
func (f *Fabric) Nodes() int { return f.n }

// Params returns the uniform link parameters.
func (f *Fabric) Params() LinkParams { return f.params }

// Send injects p into the fabric. The packet becomes visible to the
// destination at max(now, linkFree) + latency + wireLen/bandwidth. Send
// itself returns immediately: serialization occupies the *link*, not the
// calling core. Sending to self is allowed (loopback with zero latency).
func (f *Fabric) Send(p *Packet) {
	if p.Src < 0 || p.Src >= f.n || p.Dst < 0 || p.Dst >= f.n {
		panic(fmt.Sprintf("wire: send %d->%d outside fabric of %d nodes", p.Src, p.Dst, f.n))
	}
	if p.WireLen <= 0 {
		p.WireLen = len(p.Payload)
	}
	now := time.Now()
	if p.Src == p.Dst {
		p.arriveAt = now
		f.inboxes[p.Dst].push(p)
		return
	}
	l := f.links[p.Src*f.n+p.Dst]
	ser := l.params.SerializeCost(p.WireLen)
	l.mu.Lock()
	busy := l.free.After(now)
	start := now
	if busy {
		start = l.free
	}
	l.free = start.Add(ser).Add(l.params.PacketGap)
	l.mu.Unlock()
	if p.WireLen <= l.params.fragBytes() {
		// Small packet: it interleaves at fragment granularity with
		// whatever bulk transfer occupies the link, waiting at most one
		// fragment slot. Wire-level ordering against bulk transfers is
		// therefore NOT preserved — receivers that need ordered delivery
		// must reorder by sequence number, as the engine does.
		delay := time.Duration(0)
		if busy {
			delay = l.params.FragSlot()
		}
		p.arriveAt = now.Add(delay).Add(ser).Add(l.params.Latency)
	} else {
		// Bulk transfer: its last byte lands after the full queue drains.
		p.arriveAt = start.Add(ser).Add(l.params.Latency)
	}
	f.inboxes[p.Dst].push(p)
}

// Poll returns the next packet that has arrived at node dst, or nil if none
// is visible yet. Polling is how PIOMan's active detection works; it costs
// only the caller's time.
func (f *Fabric) Poll(dst int) *Packet {
	return f.inboxes[dst].pop(time.Now())
}

// PollBatch drains up to len(into) arrived packets for node dst in one
// inbox visit, returning how many it wrote — identical to a loop of Poll
// but with one lock round trip per run.
func (f *Fabric) PollBatch(dst int, into []*Packet) int {
	return f.inboxes[dst].popRun(time.Now(), into)
}

// PendingAt reports whether any packet (arrived or in flight) is queued for
// node dst, and the arrival time of the earliest one.
func (f *Fabric) PendingAt(dst int) (time.Time, bool) {
	return f.inboxes[dst].earliest()
}

// LinkBacklog returns how far into the future the src→dst link's
// serialization horizon extends — zero when the link is idle. The engine's
// optimizer uses it to feed the NIC only when it is (nearly) idle, which
// is what lets waiting packs accumulate for the aggregation strategy.
func (f *Fabric) LinkBacklog(src, dst int) time.Duration {
	if src == dst {
		return 0
	}
	l := f.links[src*f.n+dst]
	l.mu.Lock()
	free := l.free
	l.mu.Unlock()
	if d := time.Until(free); d > 0 {
		return d
	}
	return 0
}

// BlockingRecv waits until a packet is available for dst and returns it.
// It models the interrupt-based blocking system call of the paper ([10]):
// the caller sleeps (no core burned) and wakes with timer/scheduler latency
// rather than polling precision. A nil return means the fabric was closed
// or the timeout expired.
func (f *Fabric) BlockingRecv(dst int, timeout time.Duration) *Packet {
	deadline := time.Now().Add(timeout)
	ib := f.inboxes[dst]
	for {
		if p := ib.pop(time.Now()); p != nil {
			// Back-to-back pushes can collapse into one notify edge;
			// pass it on so a second blocked receiver re-evaluates its
			// sleep instead of waiting out its timeout.
			if _, more := ib.earliest(); more {
				sync2.Notify(ib.notify)
			}
			return p
		}
		if f.closed.Load() {
			sync2.Notify(ib.notify) // and on to the next blocked receiver
			return nil
		}
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		// Sleep until the earliest in-flight arrival, a notification, or
		// the timeout, whichever comes first.
		wait := deadline.Sub(now)
		if at, ok := ib.earliest(); ok {
			if d := at.Sub(now); d < wait {
				wait = d
			}
		}
		if wait <= 0 {
			continue
		}
		t := sync2.GetTimer(wait)
		fired := false
		select {
		case <-ib.notify:
		case <-t.C:
			fired = true
		}
		sync2.PutTimer(t, fired)
	}
}

// Close marks the fabric closed and wakes blocking receivers.
func (f *Fabric) Close() {
	f.closed.Store(true)
	for _, ib := range f.inboxes {
		sync2.Notify(ib.notify)
	}
}
