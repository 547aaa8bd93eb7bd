// Package shmfab is the shared-memory transport backend for the fabric
// layer: ranks on the same host exchange packets through mmap'd files,
// one fixed-slot single-producer/single-consumer ring per directed pair
// of ranks. It replaces the *simulated* SHM rail (nic.SHMParams over the
// wire simulator) with real inter-process shared memory — the paper's
// intra-node channel of §4.3 — when ranks genuinely share a host.
//
// Topology is a full mesh over a shared directory: rank i sends to rank j
// through the ring file "ring-i-to-j". Every endpoint creates or attaches
// all of its rings, in both roles, at construction; the creation race
// (both sides of a pair arriving at once, in either order) is resolved by
// an O_EXCL create whose winner initializes the file and publishes a
// magic word last, while the loser waits for that magic and validates the
// geometry. A directory must serve exactly one run: reusing one across
// runs would splice a new process into a half-consumed ring, so launchers
// (cmd/nmrun -fabric shm, Local) use a fresh directory per run.
//
// Frames are the fabric codec's length-prefixed packets, chunked across
// consecutive slots as a byte stream, so a frame may be both far larger
// than a slot and larger than the whole ring — the producer streams it
// through as the consumer drains. Like tcpfab, Send never blocks on the
// receiver: it serializes the frame before returning (the engine may
// reuse the payload buffer the moment Send returns) and either writes the
// slots directly when the ring has room or hands the bytes to a per-ring
// pump goroutine with an unbounded overflow buffer. Ring waits busy-wait
// with adaptive backoff — a short yield-spin phase that escalates into
// sleeping.
//
// Delivery within one ring is strict per-sender FIFO; across senders no
// order is promised — exactly the portable fabric.Endpoint contract, see
// docs/FABRIC.md. The conformance suite (fabric/conformance) runs against
// this backend in shmfab_test.go.
package shmfab

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/wire"
)

const (
	// defaultSlots is the per-ring slot count.
	defaultSlots = 128
	// defaultSlotBytes is the per-slot data capacity. 128 slots × 8 KiB
	// gives each direction a 1 MiB window, several eager messages deep,
	// before the pump path engages.
	defaultSlotBytes = 8 << 10
	// defaultAttachTimeout bounds how long an endpoint waits for a peer
	// mid-creation before declaring the ring file abandoned.
	defaultAttachTimeout = 10 * time.Second
	// closeDrainTimeout bounds how long Close lets pumps flush queued
	// frames into a ring whose consumer has stopped draining.
	closeDrainTimeout = 5 * time.Second
)

// Config describes one process's attachment to a shared-memory fabric.
type Config struct {
	// Self is this endpoint's rank.
	Self int
	// Nodes is the cluster size.
	Nodes int
	// Dir is the shared directory holding the ring files. Every rank of
	// one run must use the same directory, and the directory must be
	// fresh for the run (stale rings from a previous run would be
	// spliced into this one mid-state).
	Dir string

	// The ring geometry and the attach timeout are test hooks (WithGeometry,
	// WithAttachTimeout); zero selects the defaults every shipped caller
	// runs. slots is the per-ring slot count, slotBytes the per-slot data
	// capacity (rounded up to a multiple of 8); all ranks must agree on
	// both, attachment fails otherwise. attachTimeout bounds waiting for a
	// peer that won the creation race but has not finished initializing a
	// ring.
	slots, slotBytes int
	attachTimeout    time.Duration
}

// Endpoint is one process's port on a shared-memory fabric. It implements
// fabric.Endpoint.
type Endpoint struct {
	self, nodes int
	dir         string

	out []*outRing // producer side, indexed by destination rank; nil at self
	in  []*inRing  // consumer side, indexed by source rank; nil at self

	lost atomic.Uint64 // frames accepted by Send, then abandoned at Close

	state         atomic.Int32 // 0 open, 1 closed
	drainDeadline atomic.Int64 // unix nanos; set by Close before pumps drain
	// inbox queues self-sends and whatever a ring scan decoded beyond
	// the caller's batch. Only its queue half is used: receivers wait on
	// the rings (BlockingRecv's scan + backoff), not on its notify edge.
	inbox *fabric.Inbox
	wwg   sync.WaitGroup // pump goroutines

	// recvMu serializes the consumer role: ring cursors and frame
	// reassembly are single-consumer state, and Close unmaps under this
	// lock so no scanner can touch freed memory.
	recvMu sync.Mutex
	rr     int // round-robin scan start, for fairness across senders
	// decRun is the reusable run buffer decodeFrames batches one ring's
	// decoded packets in before publishing them to the inbox under a
	// single lock; guarded by recvMu like the rest of the consumer state.
	decRun []*wire.Packet
}

// outRing owns the producer half of one ring: Send serializes frames
// under mu — directly into the ring when it has room, otherwise into an
// unbounded overflow buffer drained by a pump goroutine. The pumping flag
// keeps the single-producer invariant: the direct path writes slots only
// while the pump is parked with an empty buffer.
//
// Every serialization buffer bigger than one slot is a bufpool borrow,
// returned once its bytes are in the ring: a direct-path frame once its
// slots are written, a pump batch once it is pumped. A direct-path frame
// that fits one slot is encoded in place, in the slot itself, so a
// small-frame storm costs no pool operation and no copy.
type outRing struct {
	r    *ring
	mu   sync.Mutex
	cond *sync.Cond

	buf     []byte // serialized frames awaiting the pump
	nframes int    // frames in buf, for loss accounting
	pumping bool   // pump holds bytes it has not finished writing
	closing bool   // endpoint closing: drain, then stop
}

// inRing owns the consumer half of one ring plus the byte-stream decoder
// that reassembles frames spanning slots.
type inRing struct {
	r *ring
	// part is the frame straddling slots, reassembled in a bufpool
	// borrow sized from its length prefix; nil between frames. A length
	// prefix that itself straddles a slot boundary collects in pre first.
	part []byte
	pre  [4]byte
	npre int
	dead bool // decoder hit a corrupt frame; ring abandoned
}

// ringPath names the ring file carrying src's traffic toward dst.
func ringPath(dir string, src, dst int) string {
	return filepath.Join(dir, fmt.Sprintf("ring-%d-to-%d", src, dst))
}

// claimRank marks rank as attached in dir, failing loudly when something
// already holds that rank so two producers can never share a ring.
func claimRank(dir string, rank int) error {
	path := filepath.Join(dir, fmt.Sprintf("rank-%d.claim", rank))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return fmt.Errorf("shmfab: rank %d is already attached to %s — duplicate rank flag, or a stale directory from an earlier run (each run needs a fresh directory)", rank, dir)
		}
		return fmt.Errorf("shmfab: claim rank %d: %w", rank, err)
	}
	fmt.Fprintf(f, "%d\n", os.Getpid()) // who holds it, for debugging
	f.Close()
	return nil
}

// New opens rank cfg.Self's endpoint on the shared directory, creating or
// attaching every ring it produces into and consumes from. It returns
// once all rings are mapped; a peer need not have started yet — whoever
// arrives first creates the pair's files.
func New(cfg Config) (*Endpoint, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("shmfab: cluster needs at least one node")
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		return nil, fmt.Errorf("shmfab: rank %d outside cluster of %d", cfg.Self, cfg.Nodes)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shmfab: Config.Dir is required")
	}
	if cfg.slots <= 0 {
		cfg.slots = defaultSlots
	}
	if cfg.slotBytes <= 0 {
		cfg.slotBytes = defaultSlotBytes
	}
	cfg.slotBytes = (cfg.slotBytes + 7) &^ 7 // keep slot seq fields 8-aligned
	if cfg.attachTimeout <= 0 {
		cfg.attachTimeout = defaultAttachTimeout
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shmfab: ring directory: %w", err)
	}
	// Claim the rank before touching any ring: a second process attaching
	// as the same rank would put two producers on SPSC rings, desyncing
	// the byte stream into silent loss. The claim is an O_EXCL file, the
	// same guard shape as the ring-creation race, and it is deliberately
	// never removed — a directory serves exactly one run, so a stale
	// claim means a stale directory.
	if err := claimRank(cfg.Dir, cfg.Self); err != nil {
		return nil, err
	}
	e := &Endpoint{
		self:  cfg.Self,
		nodes: cfg.Nodes,
		dir:   cfg.Dir,
		out:   make([]*outRing, cfg.Nodes),
		in:    make([]*inRing, cfg.Nodes),
		inbox: fabric.NewInbox(),
	}
	deadline := time.Now().Add(cfg.attachTimeout)
	for peer := 0; peer < cfg.Nodes; peer++ {
		if peer == cfg.Self {
			continue
		}
		or, err := openRing(ringPath(cfg.Dir, cfg.Self, peer), cfg.slots, cfg.slotBytes, deadline)
		if err != nil {
			e.abortNew()
			return nil, err
		}
		o := &outRing{r: or}
		o.cond = sync.NewCond(&o.mu)
		e.out[peer] = o
		ir, err := openRing(ringPath(cfg.Dir, peer, cfg.Self), cfg.slots, cfg.slotBytes, deadline)
		if err != nil {
			e.abortNew()
			return nil, err
		}
		e.in[peer] = &inRing{r: ir}
	}
	for peer := 0; peer < cfg.Nodes; peer++ {
		if o := e.out[peer]; o != nil {
			e.wwg.Add(1)
			go e.pumpLoop(o)
		}
	}
	return e, nil
}

// Self implements fabric.Endpoint.
func (e *Endpoint) Self() int { return e.self }

// Nodes implements fabric.Endpoint.
func (e *Endpoint) Nodes() int { return e.nodes }

// SendCaptures implements fabric.SendCapturer: Send serializes cross-rank
// packets and copies self-deliveries before returning, so the caller may
// recycle the packet struct immediately.
func (e *Endpoint) SendCaptures() bool { return true }

// LostFrames counts frames Send accepted that were later abandoned by
// Close's bounded drain against a ring whose consumer stopped draining.
// These cannot surface as Send errors — they fail after Send returned —
// so a nonzero count here is the loss signal to watch. The count is an
// upper bound: aborting a partially written batch counts every frame the
// batch held.
func (e *Endpoint) LostFrames() uint64 { return e.lost.Load() }

// MaxPayload implements fabric.PayloadLimiter: the codec's frame ceiling
// bounds what one Send can carry.
func (e *Endpoint) MaxPayload() int { return fabric.MaxPayloadBytes }

func (e *Endpoint) closed() bool { return e.state.Load() != 0 }

// Send implements fabric.Endpoint. The frame is serialized before Send
// returns — the engine may reuse the payload buffer immediately — and is
// written straight into the ring when it has room, deferred to the pump
// otherwise. Send never waits on the consumer.
func (e *Endpoint) Send(p *wire.Packet) error {
	if e.closed() {
		return fabric.ErrClosed
	}
	if p.Dst < 0 || p.Dst >= e.nodes {
		return fmt.Errorf("shmfab: send to rank %d outside cluster of %d", p.Dst, e.nodes)
	}
	if p.WireLen <= 0 {
		p.WireLen = len(p.Payload)
	}
	// Refuse synchronously what the codec cannot frame; self-delivery
	// skips the codec but is held to the same limit so a payload does not
	// pass rank-local testing only to fail on its first cross-rank trip.
	if len(p.Payload) > fabric.MaxPayloadBytes {
		return fmt.Errorf("shmfab: %d-byte payload exceeds frame limit %d", len(p.Payload), fabric.MaxPayloadBytes)
	}
	if p.Dst == e.self {
		// Self-delivery skips the ring but not the capture rule: the
		// engine may reuse the payload buffer the moment Send returns, so
		// the packet must stop aliasing it before entering the inbox.
		// The copy lives in pooled storage like any decoded arrival, so
		// the consumer's ReleasePacket recycles it the same way.
		e.inbox.Push(fabric.CapturePacket(p))
		return nil
	}
	o := e.out[p.Dst]
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closing {
		return fabric.ErrClosed
	}
	// Direct path: with the pump parked and nothing queued ahead of us,
	// write the slots here and skip the handoff latency — but only when
	// the whole frame fits right now, because this path must not wait.
	if size := fabric.EncodedSize(p); !o.pumping && len(o.buf) == 0 &&
		o.r.freeSlots() >= slotsFor(size, o.r.slotBytes) {
		if size <= o.r.slotBytes {
			// One slot: encode straight into the mapping.
			o.r.publishSlot(len(fabric.AppendPacket(o.r.slotBuf(), p)))
			return nil
		}
		enc := fabric.AppendPacket(bufpool.Get(size)[:0], p)
		for off := 0; off < len(enc); off += o.r.slotBytes {
			o.r.writeSlot(enc[off:min(off+o.r.slotBytes, len(enc))])
		}
		bufpool.Put(enc)
		return nil
	}
	// The ring is short of room or the pump holds bytes: queue the frame
	// behind them as part of the pump's next batch.
	o.buf = fabric.AppendPacketPooled(o.buf, p)
	o.nframes++
	o.cond.Signal()
	return nil
}

// SendEncoded implements fabric.FrameEncoder: a frame toward another
// rank that fits one slot, with the pump parked, nothing queued and a
// free slot, is built in that slot — the header and then encode's
// payload, written straight into the mapping — and published. Anything
// else reports false, and the caller's Send takes the frame.
func (e *Endpoint) SendEncoded(p *wire.Packet, n int, encode func(payload []byte)) bool {
	if e.closed() || p.Dst == e.self || p.Dst < 0 || p.Dst >= e.nodes {
		return false
	}
	o := e.out[p.Dst]
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closing || o.pumping || len(o.buf) != 0 ||
		fabric.HeaderScratchBytes+n > o.r.slotBytes || o.r.freeSlots() == 0 {
		return false
	}
	o.r.publishSlot(len(fabric.AppendEncoded(o.r.slotBuf(), p, n, encode)))
	return true
}

// slotsFor returns how many slots a frame of n bytes occupies.
func slotsFor(n, slotBytes int) int {
	return (n + slotBytes - 1) / slotBytes
}

// pumpLoop drains o's overflow buffer into the ring until Close has both
// requested shutdown and the buffer is empty (or the drain deadline has
// passed). While the pump holds bytes, the direct path stays disabled, so
// the ring keeps a single producer and frames keep their send order.
func (e *Endpoint) pumpLoop(o *outRing) {
	defer e.wwg.Done()
	for {
		o.mu.Lock()
		for len(o.buf) == 0 && !o.closing {
			o.pumping = false
			o.cond.Wait()
		}
		if len(o.buf) == 0 {
			o.pumping = false
			o.mu.Unlock()
			return // closing and drained
		}
		batch, n := o.buf, o.nframes
		o.buf, o.nframes = nil, 0
		o.pumping = true
		o.mu.Unlock()
		ok := e.pumpBatch(o, batch)
		bufpool.Put(batch)
		if !ok {
			// Drain deadline passed with the consumer stuck: this batch
			// (possibly partially written) is abandoned, plus whatever
			// raced into the buffer behind it.
			e.lost.Add(uint64(n))
			o.mu.Lock()
			e.lost.Add(uint64(o.nframes))
			o.buf, o.nframes = nil, 0
			o.pumping = false
			o.mu.Unlock()
			return
		}
	}
}

// pumpBatch streams one serialized batch into the ring, waiting for the
// consumer with adaptive backoff. It reports false when the endpoint is
// closing and the drain deadline has passed before the batch fit.
func (e *Endpoint) pumpBatch(o *outRing, batch []byte) bool {
	var b backoff
	for off := 0; off < len(batch); {
		// The backoff re-arms once per stall, not per slot: while the
		// consumer keeps pace the slot loop runs straight through with no
		// backoff bookkeeping at all.
		if o.r.freeSlots() == 0 {
			for o.r.freeSlots() == 0 {
				if dl := e.drainDeadline.Load(); dl != 0 && time.Now().UnixNano() > dl {
					return false
				}
				b.pause()
			}
			b.reset()
		}
		end := off + o.r.slotBytes
		if end > len(batch) {
			end = len(batch)
		}
		o.r.writeSlot(batch[off:end])
		off = end
	}
	return true
}

// PollBatch implements fabric.Endpoint: one inbox visit hands out a
// FIFO run of already-decoded packets, and only an empty inbox pays a
// ring scan — which consumes every published slot across all
// rings in a single pass, reassembling however many frames they held, so
// a 64-byte message storm costs one scan and one lock round trip per
// batch instead of per frame. The scan's run feeds the caller's buffer
// directly — only what overflows it transits the inbox — so the common
// storm batch never double-handles a packet pointer. Per-sender order is
// preserved: each ring decodes in stream order, the direct prefix and
// the inbox overflow keep that order, and the next drain empties the
// inbox before scanning again.
func (e *Endpoint) PollBatch(into []*wire.Packet) int {
	if n := e.inbox.PopRun(into); n > 0 {
		return n
	}
	n := 0
	e.recvMu.Lock()
	if !e.closed() { // after Close the rings are unmapped; inbox only
		e.scanRings()
		n = copy(into, e.decRun)
		e.inbox.PushRun(e.decRun[n:])
		e.clearDecRun()
	}
	e.recvMu.Unlock()
	return n
}

// scanRings consumes every published slot from every inbound ring in one
// pass, round-robin for cross-sender fairness, decoding complete frames
// into e.decRun; the caller publishes the run (to the inbox, or straight
// into a PollBatch buffer) and clears it. Caller holds recvMu.
//
// The common small-frame case decodes in place: with no partial frame
// pending, the stream position is at a frame boundary and the next
// slot's data starts with a length prefix, so frames wholly inside the
// slot decode straight out of the mapping (one copy, slot to pooled
// payload) and the slot is released only afterwards. Only a frame that
// spans slots — pump batches, payloads past the slot size — is
// reassembled, in ir.part, and decoded from there once its last byte is
// in; the slot that completes it resumes in-place decoding.
func (e *Endpoint) scanRings() {
	for i := 0; i < e.nodes; i++ {
		peer := (e.rr + i) % e.nodes
		ir := e.in[peer]
		if ir == nil || ir.dead {
			continue
		}
		for ir.r.readable() && !ir.dead {
			e.scanSlot(ir, peer, ir.r.peekSlot())
			ir.r.releaseSlot()
		}
	}
	e.rr = (e.rr + 1) % e.nodes
}

// scanSlot decodes one slot's data: first the tail of the frame being
// reassembled, if any, then whole frames in place, and finally the head
// of a frame that continues in the next slot. Caller holds recvMu.
func (e *Endpoint) scanSlot(ir *inRing, peer int, data []byte) {
	if ir.part != nil || ir.npre > 0 {
		k, ok := ir.take(data)
		if !ok {
			e.abandonRing(ir)
			return
		}
		data = data[k:]
		if ir.part == nil || len(ir.part) < partLen(ir.part) {
			return // the whole slot belonged to the unfinished frame
		}
		p, err := fabric.DecodePacketPooled(ir.part)
		bufpool.Put(ir.part)
		ir.part = nil
		if err != nil {
			e.abandonRing(ir)
			return
		}
		p.Src = peer
		e.decRun = append(e.decRun, p)
	}
	used, ok := e.decodeStream(data, peer)
	if ok && used < len(data) {
		// A frame's tail is still streaming through the ring: start
		// reassembling it. take swallows all of data[used:], which is
		// shorter than the frame by construction.
		_, ok = ir.take(data[used:])
	}
	if !ok {
		e.abandonRing(ir)
	}
}

// take appends the head of data that belongs to the frame being
// reassembled and returns how many bytes that was; false means the frame
// announced an impossible length. Once the length prefix is complete,
// the frame moves into a pool buffer holding exactly its bytes.
func (ir *inRing) take(data []byte) (int, bool) {
	took := 0
	if ir.part == nil {
		took = copy(ir.pre[ir.npre:], data)
		ir.npre += took
		if ir.npre < len(ir.pre) {
			return took, true
		}
		ir.npre = 0
		n := partLen(ir.pre[:])
		if n-4 > fabric.MaxFrameBytes {
			return took, false
		}
		ir.part = append(bufpool.Get(n)[:0], ir.pre[:]...)
	}
	k := min(partLen(ir.part)-len(ir.part), len(data)-took)
	ir.part = append(ir.part, data[took:took+k]...)
	return took + k, true
}

// partLen returns the full size of the frame whose length prefix starts
// b.
func partLen(b []byte) int {
	return 4 + int(binary.LittleEndian.Uint32(b))
}

// decodeStream decodes every complete frame at the head of buf into the
// scan pass's run, stamping each packet with the ring's producer
// identity — a frame cannot impersonate another rank, the ring it
// arrived on wins over its header. It returns how many bytes it
// consumed, and false when the stream is corrupt. Caller holds recvMu.
func (e *Endpoint) decodeStream(buf []byte, peer int) (int, bool) {
	used := 0
	for len(buf)-used >= 4 {
		b := buf[used:]
		n := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		if n > fabric.MaxFrameBytes {
			return used, false
		}
		if len(b) < 4+n {
			break // frame still streaming through the ring
		}
		p, err := fabric.DecodePacketPooled(b[:4+n])
		if err != nil {
			return used, false
		}
		p.Src = peer
		e.decRun = append(e.decRun, p)
		used += 4 + n
	}
	return used, true
}

// abandonRing marks a corrupt ring dead — the ring is abandoned, the
// endpoint (and frames already decoded this pass) stay live. Caller
// holds recvMu.
func (e *Endpoint) abandonRing(ir *inRing) {
	ir.dead = true
	if ir.part != nil {
		bufpool.Put(ir.part)
		ir.part = nil
	}
}

// maxDecRunEntries caps the scan run array capacity kept for reuse: a
// storm scan can decode thousands of frames in one pass, and keeping
// that peak would pin it per endpoint forever.
const maxDecRunEntries = 1024

// clearDecRun resets the scan run buffer with its packet aliases
// dropped — ownership moved to the inbox, and a retained pointer would
// resurrect a recycled packet. Caller holds recvMu.
func (e *Endpoint) clearDecRun() {
	if cap(e.decRun) > maxDecRunEntries {
		e.decRun = nil
		return
	}
	for i := range e.decRun {
		e.decRun[i] = nil
	}
	e.decRun = e.decRun[:0]
}

// BlockingRecv implements fabric.Endpoint: it waits up to timeout for a
// packet with adaptive backoff — briefly yield-spinning, then sleeping
// at escalating intervals — so an idle waiter
// costs little CPU while a loaded one wakes fast.
func (e *Endpoint) BlockingRecv(timeout time.Duration) *wire.Packet {
	deadline := time.Now().Add(timeout)
	var b backoff
	var one [1]*wire.Packet
	for {
		if e.PollBatch(one[:]) == 1 {
			return one[0]
		}
		if e.closed() || time.Now().After(deadline) {
			return nil
		}
		b.pause()
	}
}

// Close implements fabric.Endpoint: refuse new sends, let the pumps drain
// queued frames into the rings (bounded by closeDrainTimeout against a
// consumer that stopped draining, with the shortfall counted in
// LostFrames), then unmap everything and wake blocked receivers. Packets
// already decoded into the inbox remain pollable; slots never consumed
// are dropped, like bytes on a closed socket. Idempotent.
func (e *Endpoint) Close() error {
	if !e.state.CompareAndSwap(0, 1) {
		return nil
	}
	e.drainDeadline.Store(time.Now().Add(closeDrainTimeout).UnixNano())
	for _, o := range e.out {
		if o == nil {
			continue
		}
		o.mu.Lock()
		o.closing = true
		o.cond.Broadcast()
		o.mu.Unlock()
	}
	e.wwg.Wait()
	// recvMu fences racing scanners; the per-ring locks fence a direct
	// Send that won its closing check before we set the flag.
	e.recvMu.Lock()
	for _, o := range e.out {
		if o == nil {
			continue
		}
		o.mu.Lock()
		o.mu.Unlock() //nolint:staticcheck // lock/unlock is the fence
	}
	e.unmapAll()
	e.recvMu.Unlock()
	return nil
}

// abortNew unwinds a failed construction: mappings are released and the
// rank claim is withdrawn so a corrected retry (say, after a geometry
// mismatch) is not misreported as a duplicate rank.
func (e *Endpoint) abortNew() {
	e.unmapAll()
	os.Remove(filepath.Join(e.dir, fmt.Sprintf("rank-%d.claim", e.self)))
}

// unmapAll releases every ring mapping (construction-failure and Close
// paths).
func (e *Endpoint) unmapAll() {
	for _, o := range e.out {
		if o != nil && o.r != nil {
			o.r.close()
			o.r = nil
		}
	}
	for i, ir := range e.in {
		if ir != nil {
			ir.r.close()
			e.in[i] = nil
		}
	}
}

// backoff is the adaptive wait used whenever a ring is full (producer
// side) or empty (consumer side): a bounded yield-spin phase for the
// common case where the peer is actively moving, then sleeps that double
// up to a cap so a stalled peer costs little CPU.
type backoff struct {
	spins int
	sleep time.Duration
}

const (
	backoffSpins    = 128
	backoffMinSleep = time.Microsecond
	backoffMaxSleep = 500 * time.Microsecond
)

// pause waits one adaptive step.
func (b *backoff) pause() {
	if b.spins < backoffSpins {
		b.spins++
		runtime.Gosched()
		return
	}
	if b.sleep == 0 {
		b.sleep = backoffMinSleep
	}
	time.Sleep(b.sleep)
	if b.sleep < backoffMaxSleep {
		b.sleep *= 2
	}
}

// reset re-arms the spin phase after progress was made.
func (b *backoff) reset() {
	b.spins, b.sleep = 0, 0
}
