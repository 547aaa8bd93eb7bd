package core

import (
	"time"

	"pioman/internal/nic"
	"pioman/internal/topo"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// The rendezvous protocol on its no-loss path: RTS → CTS → DATA →
// DATA-ack, with the DATA phase striped across weighted rails. What
// happens when any of those frames goes missing is replay.go.

// rdvPhase is where a rendezvous send in its peer's unacked window stands.
type rdvPhase uint8

const (
	// phaseRTS: the RTS is posted (or the send is parked and its RTS
	// withheld); no CTS yet.
	phaseRTS rdvPhase = iota
	// phaseData: the CTS arrived and the DATA is posted; the receiver's
	// ack is outstanding.
	phaseData
)

// rdvRecvState tracks an in-flight rendezvous reception — the receive
// half of the striping completion barrier. Chunks may arrive out of
// order and over different rails, and the sender's rail-failure fallback
// may re-stripe a span whose loss was only suspected (loss counters are
// an upper bound), so progress is tracked as covered byte intervals, not
// a bare countdown: overlapping or duplicate chunks contribute only
// their newly covered bytes, and the request completes exactly when the
// intervals cover the whole message.
type rdvRecvState struct {
	req    *RecvReq
	src    int
	msgLen int
	// covered holds the received byte ranges, disjoint and sorted. It
	// starts in inline, and the common case — chunks arriving in order,
	// each merging into one span — never grows it past that entry.
	covered []chunkSpan
	inline  [1]chunkSpan
	// got is the total byte count covered.
	got int
}

// chunkSpan is one contiguous byte range [off, end) of a rendezvous
// payload — a unit of striping and reassembly.
type chunkSpan struct {
	off, end int
}

// addSpan merges [off, end) into the covered set and returns how many of
// its bytes were new. Chunk counts are small (payload/MTU per rail), so
// linear insertion is cheap.
func (st *rdvRecvState) addSpan(off, end int) int {
	if end > st.msgLen {
		end = st.msgLen
	}
	if end <= off {
		return 0
	}
	if st.covered == nil {
		st.covered = st.inline[:0]
	}
	// Find the insertion window: every span overlapping or adjacent to
	// [off, end) collapses into one.
	i := 0
	for i < len(st.covered) && st.covered[i].end < off {
		i++
	}
	j := i
	merged := chunkSpan{off: off, end: end}
	for j < len(st.covered) && st.covered[j].off <= end {
		if st.covered[j].off < merged.off {
			merged.off = st.covered[j].off
		}
		if st.covered[j].end > merged.end {
			merged.end = st.covered[j].end
		}
		j++
	}
	newBytes := merged.end - merged.off
	for k := i; k < j; k++ {
		newBytes -= st.covered[k].end - st.covered[k].off
	}
	if i == j {
		// Disjoint: open a slot at i.
		st.covered = append(st.covered, chunkSpan{})
		copy(st.covered[i+1:], st.covered[i:])
	} else {
		// Collapsed [i, j) into one entry; close the gap.
		st.covered = append(st.covered[:i+1], st.covered[j:]...)
	}
	st.covered[i] = merged
	st.got += newBytes
	return newBytes
}

// railHeader builds the protocol header for a packet.
func railHeader(src, dst, tag int, seq, msgID uint64) nic.Header {
	return nic.Header{Src: src, Dst: dst, Tag: tag, Seq: seq, MsgID: msgID}
}

// startRdv is the rendezvous half of Isend: it assigns the send its
// place in the stream and either admits it to the peer's unacked window
// and posts the RTS, or — with the window at its cap — parks it.
func (e *Engine) startRdv(r *SendReq) {
	r.msgID = e.msgID.Add(1)
	if e.tel != nil {
		r.rtsAt = time.Now()
	}
	if e.cfg.PeerDeadline > 0 {
		r.postedAt = time.Now()
	}
	// Arm the acked-replay timer: the request stays owned by the engine
	// (the peer's window) until the receiver's DATA-ack, and the resend
	// deadline re-posts whatever got lost meanwhile.
	r.arm()
	e.pendingRdv.Add(1)
	e.nRdv.Add(1)
	p := &e.peers[r.dst]
	e.qlock.Lock()
	if p.dead.Load() {
		// Lost the race with a death verdict after Isend's fail-fast
		// check. The flag is raised before the sweep takes qlock, so a
		// send that gets here either sees it or is in the window in time
		// to be swept; entering the window now would strand it.
		e.qlock.Unlock()
		e.pendingRdv.Add(-1)
		e.nReqFailed.Add(1)
		r.req.CompleteErr(ErrPeerDead)
		return
	}
	p.nextSeq++
	r.seq = p.nextSeq
	// The unacked replay window to this peer is bounded: past the cap the
	// send keeps its place in the stream but parks, RTS withheld, until a
	// DATA-ack admits it. Isend still never blocks, and the replay timer
	// never scans parked requests — they have nothing on the wire to
	// replay.
	park := len(p.window) >= e.cfg.maxPendingRdvPerPeer
	if park {
		p.parked = append(p.parked, r)
	} else {
		if p.window == nil {
			p.window = make(map[uint64]*SendReq)
		}
		p.window[r.msgID] = r
	}
	e.qlock.Unlock()
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRegister, -1, r.tag, r.Len(), "isend dst=%d seq=%d parked=%v", r.dst, r.seq, park)
	}
	if park {
		e.nRdvParked.Add(1)
		return
	}
	e.sendRTS(r)
}

// sendRTS puts a window-admitted send's RTS on the wire. The RTS is
// cheap; posting it immediately starts the handshake with no loss of
// asynchrony (the expensive part is reacting to the CTS, which
// background progression handles). It carries the engine's session id so
// a receiver can tell a restarted sender's fresh stream from a replay of
// the old one.
func (e *Engine) sendRTS(r *SendReq) {
	e.railFor(r.dst).SendRTS(railHeader(e.node, r.dst, r.tag, r.seq, r.msgID), r.Len(), e.session, false)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRTS, -1, r.tag, r.Len(), "msgid=%d", r.msgID)
	}
	e.kick()
}

// handleRTSFrame turns an RTS frame — the original or a replay the
// sender's resend timer fired — into an arrival on the ordered matchable
// path. A replay travels outside the stream ordering, because the
// original may already hold — or have consumed — the sequence number, so
// it first gets the chance to be answered from existing state; only a
// replay whose original never arrived is processed in its place. msgLen
// and session are the announcement validFrame decoded; the frame is the
// caller's to release.
func (e *Engine) handleRTSFrame(rail *nic.Driver, core topo.CoreID, p *wire.Packet, msgLen int, session uint64) {
	e.noteSession(p.Src, session, p.Seq)
	if p.Offset == 1 && e.answerReplay(rail, p) {
		return
	}
	ev := newArrival(rail, p.Src, p.Tag, p.Seq)
	ev.isRTS, ev.msgID, ev.msgLen = true, p.MsgID, msgLen
	e.handleMatchable(core, ev)
}

// handleRTS reacts to an in-order rendezvous request: if a matching
// receive is posted, answer CTS immediately (reactivity is the whole
// point, §2.3); otherwise the arrival joins the unexpected list and
// reports itself kept.
func (e *Engine) handleRTS(core topo.CoreID, ev *arrival) (kept bool) {
	e.qlock.Lock()
	r := e.posted.match(ev.src, ev.tag)
	if r == nil {
		e.unexpected = append(e.unexpected, ev)
		e.qlock.Unlock()
		e.nUnexp.Add(1)
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindUnexpected, int(core), ev.tag, ev.msgLen, "rts msgid=%d", ev.msgID)
		}
		return true
	}
	e.expectData(r, ev)
	e.qlock.Unlock()
	e.sendCTS(core, ev)
	return false
}

// expectData registers r as the in-flight reception the announced
// rendezvous will fill, its state embedded in r (RecvReq.rdv); caller
// holds qlock.
func (e *Engine) expectData(r *RecvReq, ev *arrival) {
	r.gotTag = ev.tag
	p := &e.peers[ev.src]
	if p.recving == nil {
		p.recving = make(map[uint64]*rdvRecvState)
	}
	r.rdv = rdvRecvState{req: r, src: ev.src, msgLen: ev.msgLen}
	p.recving[ev.msgID] = &r.rdv
}

// sendCTS answers an accepted RTS on the rail it arrived on.
func (e *Engine) sendCTS(core topo.CoreID, ev *arrival) {
	ev.rail.SendControl(wire.PktCTS, railHeader(e.node, ev.src, ev.tag, ev.seq, ev.msgID))
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindCTS, int(core), ev.tag, ev.msgLen, "msgid=%d", ev.msgID)
	}
}

// handleCTS reacts to a rendezvous acknowledgement: the receiver is
// ready, post the zero-copy data transfer. The send does not complete
// here — it moves to the data phase and completes when the receiver's
// DATA-ack arrives (handleDataAck), so the application buffer stays
// valid for replay if a rail dies after submission.
func (e *Engine) handleCTS(core topo.CoreID, p *wire.Packet) {
	e.qlock.Lock()
	s := e.peers[p.Src].window[p.MsgID]
	if s == nil || s.phase != phaseRTS {
		e.qlock.Unlock()
		return // duplicate CTS; the data phase (or its replay) owns the request
	}
	s.phase = phaseData
	// Fresh deadline for the data phase; the RTS phase may have backed
	// the request's timer off.
	s.arm()
	e.qlock.Unlock()
	// Handshake latency stamps: rendezvous CTSes are rare (one per bulk
	// message), so reading the clock here is off the eager hot path by
	// construction.
	var ctsAt time.Time
	if e.tel != nil && !s.rtsAt.IsZero() {
		ctsAt = time.Now()
		e.tel.rtsToCts.ObserveDuration(ctsAt.Sub(s.rtsAt))
	}
	e.sendRdvData(core, s)
	if !ctsAt.IsZero() {
		e.tel.ctsToData.ObserveDuration(time.Since(ctsAt))
	}
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindData, int(core), s.tag, s.Len(), "rdv data posted msgid=%d", s.msgID)
	}
}

// stripeMin is the smallest rendezvous payload a striping engine splits
// across rails; smaller ones ride the destination's rail alone.
const stripeMin = 128 << 10

// maxRails bounds an engine's rail count so stripeData can track the
// rails that failed a span in one word.
const maxRails = 64

// sendRdvData posts the DATA transfer, striped across the weighted rails
// when the engine stripes (Engine.stripe) and the payload reaches
// stripeMin.
func (e *Engine) sendRdvData(core topo.CoreID, s *SendReq) {
	h := railHeader(e.node, s.dst, s.tag, s.seq, s.msgID)
	var buf [4]*nic.Driver // a world with more rails stripes onto the heap
	rails := e.dataRails(buf[:0], s.dst, s.Len())
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindData, int(core), s.tag, s.Len(), "msgid=%d rails=%d", s.msgID, len(rails))
	}
	if lim := rails[0].MaxFrame(); len(rails) == 1 && !e.stripe && (lim <= 0 || s.Len() <= lim) {
		// A single-rail world models the classical single-DMA
		// submission; the simulator's wire does its own fragmenting.
		rails[0].SendData(h, 0, s.data)
		return
	}
	// Chunk at the rail MTU: a striped transfer, a striping engine's
	// transfer collapsed onto one rail (below stripeMin, or one weighted
	// rail left), or a transport that refuses single frames this large
	// outright (udpfab's one-datagram frame ceiling). The receive side
	// reassembles chunks by offset in every case.
	e.stripeData(h, s.data, rails)
}

// stripeData places a rendezvous payload on rails: it splits into one
// contiguous span per rail, sized proportionally to the rails' live
// stripe weights, and each span goes out as MTU-bounded DATA chunks on
// its rail. A rail whose loss signal (nic.Driver.Losses) moved while its
// span was submitted is demoted, and the span goes at once to the
// heaviest rail that has not failed — the fallback that keeps a bonded
// rendezvous completing when one rail dies mid-transfer. With no rail
// left the loss stays visible in the counters, every failed rail is on
// probation, and the acked-replay timer re-sends once one heals.
func (e *Engine) stripeData(h nic.Header, data []byte, rails []*nic.Driver) {
	total := 0.0
	for _, r := range rails {
		total += r.StripeWeight()
	}
	var failed uint64 // bit i: rails[i] lost a span of this transfer
	// survivor is rails[i] unless it failed, else the heaviest rail that
	// has not, or -1.
	survivor := func(i int) int {
		if failed&(1<<i) == 0 {
			return i
		}
		best := -1
		for j, r := range rails {
			if failed&(1<<j) == 0 && (best < 0 || r.StripeWeight() > rails[best].StripeWeight()) {
				best = j
			}
		}
		return best
	}
	off := 0
	for i, r := range rails {
		// Weights are live (a caller may SetStripeWeight mid-run), so
		// the last span takes whatever the rounding or a new weight left.
		end := len(data)
		if i < len(rails)-1 && total > 0 {
			end = min(off+int(float64(len(data))*r.StripeWeight()/total), len(data))
		}
		sp := chunkSpan{off: off, end: end}
		off = end
		// Each failed try retires a rail, so the loop ends within
		// len(rails) failures.
		for j := survivor(i); j >= 0; j = survivor(j) {
			if e.sendSpan(rails[j], h, data, sp) {
				break
			}
			failed |= 1 << j
			e.demoteRail(rails[j], h.Dst)
		}
	}
}

// sendSpan submits one contiguous span as MTU-bounded DATA chunks on r
// and reports whether the rail's loss signal stayed quiet across the
// submission. Detection is necessarily synchronous-best-effort: a real
// stream can still fail after the frames were accepted, which the
// counters surface asynchronously (docs/FABRIC.md).
func (e *Engine) sendSpan(r *nic.Driver, h nic.Header, data []byte, sp chunkSpan) bool {
	if sp.end <= sp.off {
		return true
	}
	before := r.Losses()
	mtu := r.MTU()
	for off := sp.off; off < sp.end; off += mtu {
		end := min(off+mtu, sp.end)
		r.SendData(h, off, data[off:end])
	}
	return r.Losses() == before
}

// dataRails appends to into the rails carrying a rendezvous payload to
// dst and returns the result: the destination's single rail, unless the
// engine stripes and the payload reaches stripeMin — then every rail
// declaring a positive stripe weight. Weight-gating is what keeps rails
// that only serve a subset of peers — the simulated intra-node SHM
// channel — out of cross-node striping, while a real shared-memory rail
// (nic.ShmParams), whose rings span every rank of the world,
// participates; and SetStripeWeight(0) takes a rail out. Rails on
// probation are skipped unless every weighted rail is. The caller owns
// into, so the per-message path allocates nothing.
func (e *Engine) dataRails(into []*nic.Driver, dst, size int) []*nic.Driver {
	if !e.stripe || size < stripeMin || dst == e.node {
		return append(into, e.railFor(dst))
	}
	onProbation := e.probationCount.Load() > 0
	for i, r := range e.rails {
		if r.StripeWeight() > 0 && (!onProbation || e.health[i].active()) {
			into = append(into, r)
		}
	}
	if len(into) == 0 && onProbation {
		// Every weighted rail is on probation: stripe across them anyway
		// rather than across nothing — a possibly-dead rail plus the
		// replay timer beats a guaranteed drop.
		for _, r := range e.rails {
			if r.StripeWeight() > 0 {
				into = append(into, r)
			}
		}
	}
	if len(into) == 0 {
		// Every weight was set to zero.
		into = append(into, e.railFor(dst))
	}
	return into
}

// handleData consumes a rendezvous payload chunk: it lands directly in the
// application buffer (zero copy). On the final chunk the receiver acks
// the whole transfer back on the chunk's arrival rail — the signal that
// lets the sender retire its replay state — then Complete runs last; the
// request is not touched afterwards.
//
// A chunk whose msgID has no handshake state is a designed occurrence,
// not corruption: the failure fallback re-stripes spans whose loss was
// only suspected (loss counters are an upper bound), and the acked-replay
// timer re-sends whole transfers whose ack was lost. A chunk of a
// transfer the sender's done-ring remembers completing is re-acked (the
// sender is replaying because the first ack was lost); anything else is
// dropped.
func (e *Engine) handleData(rail *nic.Driver, core topo.CoreID, p *wire.Packet) {
	src := &e.peers[p.Src]
	h := railHeader(e.node, p.Src, p.Tag, p.Seq, p.MsgID)
	e.qlock.Lock()
	st := src.recving[p.MsgID]
	done := st == nil && src.done.has(p.MsgID)
	var buf []byte
	var msgLen int
	if st != nil {
		buf, msgLen = st.req.buf, st.msgLen
	}
	e.qlock.Unlock()
	if st == nil {
		if done {
			rail.SendControl(wire.PktDataAck, h)
		} else if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindWireRecv, int(core), p.Tag, len(p.Payload), "late data msgid=%d", p.MsgID)
		}
		return
	}
	// The length is outside input: a chunk reaching past the announced
	// message would count bytes it does not have. (validFrame refused a
	// negative offset.)
	if uint64(p.Offset)+uint64(len(p.Payload)) > uint64(msgLen) {
		e.dropFrame(core, dropPastLength, p.Src, p.Tag)
		return
	}
	// The copy runs outside qlock; the state does not. st is embedded in
	// its request (RecvReq.rdv), which a death sweep can fail — and the
	// application release and reuse — while the copy runs, so the
	// interval set is only touched after re-checking that the reception
	// is still live. Duplicate and overlapping chunks (failover
	// re-stripes, replay re-sends) contribute only their newly covered
	// bytes — the idempotence that makes replays safe to fire on
	// suspicion.
	copy(buf[min(p.Offset, len(buf)):], p.Payload)
	e.qlock.Lock()
	if src.recving[p.MsgID] != st {
		// The sender was declared dead (or restarted) while the chunk was
		// being copied: the sweep already failed the request.
		e.qlock.Unlock()
		return
	}
	if st.addSpan(p.Offset, p.Offset+len(p.Payload)); st.got < st.msgLen {
		e.qlock.Unlock()
		return
	}
	delete(src.recving, p.MsgID)
	src.done.add(p.MsgID)
	r, n, from := st.req, st.msgLen, st.src
	e.qlock.Unlock()
	rail.SendControl(wire.PktDataAck, h)
	if n > len(r.buf) {
		r.truncated = true
		n = len(r.buf)
	}
	r.n, r.from = n, from
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindComplete, int(core), r.tag, n, "rdv recv msgid=%d", p.MsgID)
	}
	r.req.Complete()
}

// handleDataAck completes a rendezvous send: the receiver has the whole
// payload. Completion runs last and the request is never touched after
// it — except when the replay timer holds the request mid-resend, in
// which case the completion is parked on the request and replayDue runs
// it once the resend is off the wire.
func (e *Engine) handleDataAck(core topo.CoreID, p *wire.Packet) {
	dst := &e.peers[p.Src]
	e.qlock.Lock()
	s := dst.window[p.MsgID]
	if s == nil || s.phase != phaseData {
		// Duplicate ack (the receiver re-acks replayed chunks of a
		// completed transfer); the first one already completed the send.
		e.qlock.Unlock()
		return
	}
	delete(dst.window, p.MsgID)
	deferred := s.replaying
	if deferred {
		s.ackDeferred = true
	}
	// The ack freed a slot in this peer's unacked window: admit the
	// oldest parked send. Its replay timer restarts now — the deadline
	// stamped at Isend may be long past, and the RTS is only now going
	// on the wire.
	var next *SendReq
	if len(dst.parked) > 0 {
		next = dst.parked[0]
		dst.parked[0] = nil
		dst.parked = dst.parked[1:]
		next.arm()
		dst.window[next.msgID] = next
	}
	e.qlock.Unlock()
	if next != nil {
		e.sendRTS(next)
	}
	e.pendingRdv.Add(-1)
	e.nAcks.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindComplete, int(core), s.tag, s.Len(), "rdv send acked msgid=%d", s.msgID)
	}
	if !deferred {
		s.req.Complete()
	}
}
