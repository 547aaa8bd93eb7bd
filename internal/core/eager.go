package core

import (
	"sync"

	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/nic"
	"pioman/internal/topo"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// arrival is one matchable inbound event — an eager payload or a
// rendezvous RTS — from the moment its frame is decoded until a receive
// consumes it. The same struct rides every stage, so a stage change is a
// list move, never a field-by-field copy: held in its sender's stash
// until its predecessors in the stream have been processed, then either
// matched on the spot or appended to the engine's unexpected list to
// wait for its Irecv.
//
// An eager payload is in one of three places. With pkt set it borrows
// that inbound packet, which the arrival owns; with staged set it is a
// fabric buffer-pool copy the arrival owns; with neither it is one entry
// of an aggregated train, borrowed from a frame handlePacket releases
// when it returns, so a list may keep the arrival only after own(). The
// packet and the staging go back to the fabric pools when the arrival is
// released — the engine's half of the inbound-buffer ownership rule
// (docs/FABRIC.md): the fabric owns arrival buffers, the engine returns
// them after copying payloads to their final destination. Arrivals
// recycle through a freelist, so even the unexpected path allocates no
// bookkeeping.
type arrival struct {
	isRTS   bool
	staged  bool
	src     int
	tag     int
	seq     uint64
	msgID   uint64 // RTS only
	payload []byte // eager only
	msgLen  int    // RTS: announced message length
	rail    *nic.Driver
	pkt     *wire.Packet
}

// arrivalPool recycles arrival structs.
var arrivalPool = sync.Pool{New: func() any { return new(arrival) }}

// newArrival draws a zeroed arrival from the freelist and fills the
// fields every kind shares.
func newArrival(rail *nic.Driver, src, tag int, seq uint64) *arrival {
	ev := arrivalPool.Get().(*arrival)
	ev.rail, ev.src, ev.tag, ev.seq = rail, src, tag, seq
	return ev
}

// release retires a fully processed arrival: the inbound packet or the
// staging copy it owns goes back to the fabric pools, the struct to the
// freelist. The caller must have copied the payload out first.
func (ev *arrival) release() {
	if ev.staged {
		bufpool.Put(ev.payload)
	}
	fabric.ReleasePacket(ev.pkt)
	*ev = arrival{}
	arrivalPool.Put(ev)
}

// stage moves the payload into a fabric buffer-pool copy the arrival
// owns, releasing the inbound packet it borrowed from (if it owned one).
// A no-op once staged.
func (ev *arrival) stage() {
	if ev.staged {
		return
	}
	b := bufpool.Get(len(ev.payload))
	copy(b, ev.payload)
	fabric.ReleasePacket(ev.pkt)
	ev.payload, ev.pkt, ev.staged = b, nil, true
}

// own makes the arrival independent of the frame being handled, so a
// list may keep it: an aggregated train's entry is staged, while an
// arrival that owns its packet already lives as long as it does.
func (ev *arrival) own() {
	if ev.pkt == nil && len(ev.payload) > 0 {
		ev.stage()
	}
}

// handleMatchable enforces per-sender stream order: the arrival is
// processed only when every lower-sequence one from the same sender has
// been; a gap (small packet overtook a bulk one on the wire) parks it in
// the sender's stash until the gap fills, and filling a gap drains every
// stashed successor it was blocking. Arrivals no list retained are
// released, which recycles the struct and its inbound packet buffers.
func (e *Engine) handleMatchable(core topo.CoreID, ev *arrival) {
	p := &e.peers[ev.src]
	var why dropReason
	e.qlock.Lock()
	next := p.lastSeq + 1
	switch {
	case p.dead.Load():
		// Checked under qlock, which the death sweep's reset also holds:
		// a frame of the dead incarnation cannot slip into the zeroed
		// stream state and collide with its successor's sequence numbers.
		why = dropDeadPeer
	case ev.seq < next && !ev.isRTS:
		// An eager frame whose sequence number the stream already
		// consumed: nothing in the engine re-sends eager data, so this is
		// outside input, dropped and counted.
		why = dropConsumed
	case ev.seq < next:
		// A replayed RTS already advanced the stream past this sequence
		// (the replay machinery races slow originals by design); the late
		// original carries nothing new.
	case ev.seq > next && p.stash[ev.seq] != nil:
		// The slot is taken: a replay overtook its stashed original (or
		// vice versa). Keep the first, drop the newcomer.
	case ev.seq > next:
		if p.stash == nil {
			p.stash = make(map[uint64]*arrival)
		}
		ev.own()
		p.stash[ev.seq] = ev
		ev = nil
	default:
		for ev != nil {
			p.lastSeq = ev.seq
			e.qlock.Unlock()
			if !e.processMatchable(core, ev) {
				ev.release()
			}
			e.qlock.Lock()
			// A reset in the unlocked window leaves an empty stash and the
			// loop ends; otherwise pick up the successor the gap blocked.
			ev = p.stash[p.lastSeq+1]
			delete(p.stash, p.lastSeq+1)
		}
	}
	e.qlock.Unlock()
	if why != "" {
		e.dropFrame(core, why, ev.src, ev.tag)
	}
	if ev != nil {
		ev.release()
	}
}

// trainHold bounds how many entries matchTrain matches under one qlock
// hold. A train carries up to an MTU of entries — over a thousand empty
// ones on a 32 KiB rail — and a hold must stay at list-manipulation
// granularity however small they are.
const trainHold = 64

// trainMatch is one train entry matchTrain matched under qlock, waiting
// for its payload copy and completion.
type trainMatch struct {
	r    *RecvReq
	tag  int
	data []byte
}

// matchTrain delivers the in-order, expected prefix of an aggregated
// train validAggr accepted and returns the entries after it, which the
// caller routes through handleMatchable one by one; caller holds
// pollLock. The prefix costs one qlock hold per trainHold entries, where
// the per-entry path pays three holds and an arrival round trip per
// entry: under the hold, each entry whose sequence number is the
// stream's next and which a posted receive matches (AnySource and AnyTag
// included) advances lastSeq and is recorded in matchBuf; the payload
// copies and completions run after the unlock, as handleEager's do. The
// walk stops at the first entry that is out of order or unexpected, and
// does not start while the peer is dead or its stash holds arrivals —
// the per-entry path drops the first and drains the second in order.
func (e *Engine) matchTrain(core topo.CoreID, src int, train []byte) (rest []byte) {
	p := &e.peers[src]
	for len(train) > 0 {
		matched := e.matchBuf[:0]
		e.qlock.Lock()
		if !p.dead.Load() && len(p.stash) == 0 {
			for len(train) > 0 && len(matched) < trainHold {
				tag, seq, data, next := splitAggr(train)
				if seq != p.lastSeq+1 {
					break
				}
				r := e.matchPostedLocked(src, tag)
				if r == nil {
					break
				}
				p.lastSeq = seq
				matched = append(matched, trainMatch{r: r, tag: tag, data: data})
				train = next
			}
		}
		e.qlock.Unlock()
		for i, m := range matched {
			matched[i] = trainMatch{}
			e.deliverEager(core, m.r, src, m.tag, m.data)
		}
		e.matchBuf = matched
		if len(matched) < trainHold {
			break
		}
	}
	return train
}

// processMatchable dispatches an in-order arrival and reports whether a
// list kept it (it turned unexpected); otherwise the caller releases it.
func (e *Engine) processMatchable(core topo.CoreID, ev *arrival) (kept bool) {
	if ev.isRTS {
		return e.handleRTS(core, ev)
	}
	return e.handleEager(core, ev)
}

// handleEager delivers one eager payload: straight into the posted buffer
// when expected (the NIC DMA'd it there — no CPU charge beyond the
// physical copy), or into the unexpected pool otherwise (a real copy,
// charged to the polling core, §2.2). Unexpected staging borrows from
// the fabric buffer pool and is returned after the pool-to-application
// copy, so even the unexpected path recycles its buffers.
func (e *Engine) handleEager(core topo.CoreID, ev *arrival) (kept bool) {
	e.qlock.Lock()
	r := e.matchPostedLocked(ev.src, ev.tag)
	e.qlock.Unlock()
	if r != nil {
		e.deliverEager(core, r, ev.src, ev.tag, ev.payload)
		return false
	}
	// Unexpected: pay the pool copy, then re-check — a receive may have
	// been posted while we copied. (An arrival that waited in the stash
	// may hold its staging copy already; the charge models the paper's
	// unexpected-pool copy either way.)
	ev.stage()
	n := len(ev.payload)
	ev.rail.ChargeMatchCopy(n)
	e.nUnexp.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindUnexpected, int(core), ev.tag, n, "src=%d", ev.src)
	}
	e.qlock.Lock()
	if r := e.matchPostedLocked(ev.src, ev.tag); r != nil {
		e.qlock.Unlock()
		// Second copy, pool to application buffer.
		ev.rail.ChargeMatchCopy(n)
		e.deliverEager(core, r, ev.src, ev.tag, ev.payload)
		return false
	}
	// The arrival itself becomes the unexpected entry, owning the staging
	// copy.
	e.unexpected = append(e.unexpected, ev)
	e.qlock.Unlock()
	return true
}

// deliverEager finishes an expected eager reception. Complete runs last;
// the request is not touched afterwards (the application may already be
// releasing it to the freelist).
func (e *Engine) deliverEager(core topo.CoreID, r *RecvReq, src, tag int, payload []byte) {
	n := copy(r.buf, payload)
	r.n, r.from, r.truncated = n, src, len(payload) > len(r.buf)
	r.gotTag = tag
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindMatch, int(core), r.tag, n, "src=%d", src)
		e.cfg.Trace.Recordf(trace.KindComplete, int(core), r.tag, n, "recv")
	}
	r.req.Complete()
}

// matchPostedLocked removes and returns the oldest posted receive matching
// (src, tag); caller holds qlock. A posted receive may wildcard the source
// (AnySource) and/or the tag (AnyTag).
func (e *Engine) matchPostedLocked(src, tag int) *RecvReq {
	for i, r := range e.posted {
		if (r.tag == tag || r.tag == AnyTag) && (r.src == AnySource || r.src == src) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// takeUnexpected removes and returns the oldest unexpected arrival
// matching (src, tag); caller holds qlock. src may be AnySource and tag
// AnyTag.
func (e *Engine) takeUnexpected(src, tag int) *arrival {
	for i, u := range e.unexpected {
		if (tag == AnyTag || u.tag == tag) && (src == AnySource || u.src == src) {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			return u
		}
	}
	return nil
}

// deliverUnexpected completes an Irecv against a buffered unexpected
// arrival and releases it: eager data pays the pool-to-application copy
// on the calling core and the staging buffer goes back to the fabric
// buffer pool; a pending RTS is answered with a CTS. Complete runs last;
// the request is not touched afterwards.
func (e *Engine) deliverUnexpected(r *RecvReq, u *arrival) {
	defer u.release()
	if u.isRTS {
		e.qlock.Lock()
		e.expectData(r, u)
		e.qlock.Unlock()
		e.sendCTS(-1, u)
		e.kick()
		return
	}
	u.rail.ChargeMatchCopy(len(u.payload))
	n := copy(r.buf, u.payload)
	r.n, r.from, r.truncated = n, u.src, len(u.payload) > len(r.buf)
	r.gotTag = u.tag
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindMatch, -1, r.tag, n, "unexpected src=%d", u.src)
	}
	r.req.Complete()
}
