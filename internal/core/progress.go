package core

import (
	"runtime"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/nic"
	"pioman/internal/topo"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// pollBatchSize caps one batched drain: large enough that a message
// storm amortizes the per-visit costs (one pollLock acquisition, one
// endpoint lock round trip, one ring scan) across dozens of frames,
// small enough that one Progress pass — and in Sequential mode one hold
// of the library-wide lock — stays bounded.
const pollBatchSize = 64

// drainWoken delivers the packet BlockingWait left in the woken slot, if
// any; caller holds pollLock, which serializes drains. The unlocked load
// keeps the common empty case to one read on the polling hot path; a
// packet it misses is picked up by its producer's own trailing Progress
// pass.
func (e *Engine) drainWoken(core topo.CoreID) bool {
	if e.woken.Load() == nil {
		return false
	}
	e.handlePacket(e.defaultRail(), core, e.woken.Swap(nil))
	return true
}

// drainRail runs batched drains of one rail and handles every frame they
// return — until the rail runs dry (full batches keep draining), or just
// once when bounded; caller holds pollLock. Batch entries are cleared as
// they are handled: handlePacket may release the packet to the fabric
// pools, and a surviving alias in the buffer would resurrect a recycled
// struct.
func (e *Engine) drainRail(rail *nic.Driver, core topo.CoreID, bounded bool) bool {
	worked := false
	for {
		n := rail.PollBatch(e.pollBuf)
		for i := 0; i < n; i++ {
			p := e.pollBuf[i]
			e.pollBuf[i] = nil
			e.handlePacket(rail, core, p)
		}
		worked = worked || n > 0
		if bounded || n < len(e.pollBuf) {
			return worked
		}
	}
}

// Progress is the engine's piom.Source implementation: one full pass.
func (e *Engine) Progress(core topo.CoreID) bool { return e.progress(core, false) }

// progress is one pass of the engine's crank: it drains arrived packets
// on every rail and submits pending eager sends. The two activities take
// separate locks, so one core can drain arrivals while another performs a
// (possibly long) submission copy; contending cores bail out immediately,
// which keeps polling cheap under contention. Arrivals drain in batches
// through the engine's reusable buffer — one pollLock acquisition and one
// endpoint visit cover a whole run of packets, which is what keeps the
// per-event cost of a message storm near zero.
//
// A bounded pass makes one step only: at most one batched drain per rail
// and one submission train. The Sequential baseline's wait loop runs it
// under the library-wide mutex, so the bound is what keeps lock hold
// times at the granularity of a single step — a batch is capped at
// pollBatchSize frames, the batched analog of the classical big-locked
// engine's one-event-per-hold discipline.
func (e *Engine) progress(core topo.CoreID, bounded bool) bool {
	n := e.nProgress.Add(1)
	t0, sampled := e.tel.dwellStart(n)
	worked := false
	if e.pollLock.TryLock() {
		worked = e.drainWoken(core)
		for _, rail := range e.rails {
			if e.drainRail(rail, core, bounded) {
				worked = true
			}
		}
		e.pollLock.Unlock()
	}
	// Background submission only happens when the engine mode calls for
	// it: always in the Sequential baseline (progress is wait-driven, and
	// bounded passes only ever run from library calls) and in
	// Multithreaded mode with offloading on. With offloading disabled the
	// posting thread is the only submitter, so idle cores must not steal
	// the submission (that is precisely the ablation's point).
	if bounded || e.cfg.Mode == Sequential || e.cfg.OffloadEager {
		if e.submitPending(core, false, bounded) {
			worked = true
		}
	}
	// Self-healing maintenance rides the progress loop: replay timers
	// and probation probes. Gated to near-zero cost when nothing is
	// pending.
	e.maybeMaint(n)
	if sampled {
		e.tel.dwell.ObserveDuration(time.Since(t0))
	}
	return worked
}

// BlockingWait implements the blocking-call fallback (§3.2): it parks on
// the default rail until a packet lands, delivers it, then runs one full
// progress pass for any follow-up work (e.g. answering an RTS). It
// reports true only when the park handed it a packet — the wake-ups
// piom counts — and false when a progress pass before the park did the
// work or the park timed out. Its one caller is piom's blocking watcher;
// the engine's own waits poll and yield instead (pollStep).
//
// Endpoints only block on their own sockets, so in a bonded world a
// chunk can land on a secondary rail while the watcher sleeps on the
// default one. A full progress pass up front drains every rail's
// arrivals first, which bounds secondary-rail latency by the watcher
// cadence instead of by the next default-rail packet — the rail-selection
// gap that made bonded rendezvous hang before multirail went real.
//
// The woken packet rides the same batched delivery path as every polled
// arrival: it goes into the woken slot and the trailing Progress pass
// delivers it under pollLock, so the watcher never waits on a lock. If a
// concurrent poller holds pollLock when the trailing pass runs, the
// packet stays in the slot — and the guard below keeps the watcher from
// parking on the rail while it waits: BlockingWait returns at once, and
// its caller loops straight back into progress passes until whoever owns
// the lock (or a later pass here) delivers it. A second concurrent
// caller that finds the slot taken runs passes until it empties.
func (e *Engine) BlockingWait(timeout time.Duration) bool {
	if e.Progress(-1) {
		return false
	}
	if e.woken.Load() != nil {
		// A woken packet from a lost pollLock race is still undelivered
		// — possibly the very arrival a blocking receive is waiting on.
		// Parking on the rail now would strand it for a whole timeout;
		// return instead so the watcher retries promptly.
		e.Progress(-1)
		return false
	}
	rail := e.defaultRail()
	var parkStart time.Time
	if e.tel != nil {
		parkStart = time.Now()
	}
	p := rail.BlockingPoll(timeout)
	if e.tel != nil {
		// Timeouts count too: an always-full park histogram bucket at the
		// timeout value is the signature of a watcher waiting on a rail
		// nobody sends on.
		e.tel.park.ObserveDuration(time.Since(parkStart))
	}
	if p == nil {
		return false
	}
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindBlockingCall, -1, p.Tag, len(p.Payload), "woke on %v", p.Kind)
	}
	for !e.woken.CompareAndSwap(nil, p) {
		if !e.Progress(-1) {
			runtime.Gosched()
		}
	}
	e.Progress(-1)
	return true
}

// submitPending grabs the submission lock and drains the ready part of
// the send queue — one train only when bounded; a pass that finds the
// queue empty (sendqReady clear) takes neither lock. fromApp marks
// submissions executed on the posting thread (the baseline path) as
// opposed to offloaded ones.
func (e *Engine) submitPending(core topo.CoreID, fromApp, bounded bool) bool {
	if !e.sendqReady.Load() || !e.submitLock.TryLock() {
		return false
	}
	defer e.submitLock.Unlock()
	worked := false
	for {
		train := e.dequeueReady()
		if len(train) == 0 {
			return worked
		}
		e.submitTrain(core, train, fromApp)
		worked = true
		if bounded {
			return true
		}
	}
}

// submitInline makes the calling (application) thread drive submission
// until r completes, which for an eager send is the moment submitTrain
// hands it to the NIC — the no-offload path: a classical engine's
// non-blocking send returns only once the packet has been handed to the
// NIC, spinning if the NIC is still busy.
func (e *Engine) submitInline(r *SendReq) {
	for !r.req.Completed() {
		e.submitPending(-1, true, false)
	}
}

// pushSendLocked queues a ready eager send, raising sendqReady when the
// queue was empty; caller holds qlock.
func (e *Engine) pushSendLocked(r *SendReq) {
	if e.sendq.peek() == nil {
		e.sendqReady.Store(true)
	}
	e.sendq.push(r)
}

// dequeueReady pops the next train whose destination rail can accept a
// submission; it returns nil either when the queue is empty or when the
// head's rail is still busy (the send keeps waiting, per the feed-on-idle
// design of Fig. 3). The train is built in the engine's reusable train
// buffer — valid until the next dequeue, which every caller serializes
// behind submitLock — so steady-state submission allocates nothing.
func (e *Engine) dequeueReady() []*SendReq {
	e.qlock.Lock()
	defer e.qlock.Unlock()
	head := e.sendq.peek()
	if head == nil {
		return nil
	}
	rail := e.railFor(head.dst)
	if !rail.CanSubmit(head.dst) {
		return nil
	}
	e.trainBuf = e.sendq.take(e.trainBuf, e.aggregate, rail.MTU())
	if e.sendq.peek() == nil {
		e.sendqReady.Store(false)
	}
	return e.trainBuf
}

// encodeTrainBuf encodes the train in trainBuf into out; encodeTrain,
// its method value made once at construction, is what submitTrain hands
// the rail, so handing it over allocates nothing. Caller holds
// submitLock.
func (e *Engine) encodeTrainBuf(out []byte) { encodeAggr(out, e.trainBuf) }

// submitTrain puts one train on the wire and completes its requests.
// The train is trainBuf, as dequeueReady built it.
// Eager sends complete at submission: the payload has been copied out of
// the application buffer (or PIO'd), so the buffer is reusable. The
// completion loop runs last and the request is never touched after its
// Complete: the application may Release it back to the freelist the
// moment its wait returns.
func (e *Engine) submitTrain(core topo.CoreID, train []*SendReq, fromApp bool) {
	r0 := train[0]
	rail := e.railFor(r0.dst)
	if !fromApp {
		e.nOffload.Add(uint64(len(train)))
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindOffload, int(core), r0.tag, r0.Len(), "dst=%d train=%d", r0.dst, len(train))
		}
	}
	if len(train) == 1 {
		rail.SendEager(railHeader(e.node, r0.dst, r0.tag, r0.seq, 0), r0.data)
		e.nEager.Add(1)
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindSubmit, int(core), r0.tag, r0.Len(), "dst=%d seq=%d", r0.dst, r0.seq)
		}
	} else {
		n := aggrSize(train)
		rail.SendAggr(railHeader(e.node, r0.dst, -1, r0.seq, 0), n, e.encodeTrain)
		e.nEager.Add(uint64(len(train)))
		e.nAggr.Add(uint64(len(train)))
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindSubmit, int(core), -1, n, "dst=%d aggregated=%d", r0.dst, len(train))
		}
	}
	for _, r := range train {
		r.req.Complete()
	}
}

// dropReason is why the engine refused an inbound frame: the one list
// of drop reasons, each counted in Stats.FramesDropped. The first five
// are refused at the door (validFrame); the last three need a stream's
// state and are refused where qlock guards it.
type dropReason string

const (
	dropSource     dropReason = "source outside the world"
	dropKind       dropReason = "kind not consumed" // a control frame, or a kind the engine does not know
	dropTrain      dropReason = "malformed train"   // validAggr refuses it
	dropRTS        dropReason = "malformed RTS"     // nic.DecodeRTS refuses it
	dropOffset     dropReason = "negative DATA offset"
	dropDeadPeer   dropReason = "dead source"       // a matchable frame from a rank declared dead
	dropConsumed   dropReason = "consumed sequence" // an eager frame or train entry whose sequence number was consumed
	dropPastLength dropReason = "DATA past length"  // a chunk past its reception's announced length
)

// validFrame is the engine's door: one check of everything about p that
// needs no stream state, before handlePacket touches any. It returns
// why p must be dropped, or "" to accept it; an RTS is decoded here,
// once, and its announcement returned. Each check guards a handler
// from outside input: a malformed RTS would use up a posted receive for
// a message no chunk can fill (or complete one at a negative length),
// and a negative DATA offset would slice a receive buffer out of range.
func (e *Engine) validFrame(p *wire.Packet) (why dropReason, msgLen int, session uint64) {
	ok := e.inWorld(p.Src)
	if !ok {
		return dropSource, 0, 0
	}
	switch p.Kind {
	case wire.PktEager, wire.PktCTS, wire.PktDataAck, wire.PktPing, wire.PktPong:
	case wire.PktAggr:
		ok, why = validAggr(p.Payload), dropTrain
	case wire.PktRTS:
		msgLen, session, ok = nic.DecodeRTS(p.Payload)
		why = dropRTS
	case wire.PktData:
		ok, why = p.Offset >= 0, dropOffset
	default:
		ok, why = false, dropKind
	}
	if ok {
		return "", msgLen, session
	}
	return why, 0, 0
}

// dropFrame is the one way out for a refused frame: it counts the drop
// and records its reason in the trace. Checks made under qlock call it
// after the unlock, so the trace's formatting never runs under the lock.
// No drop is on a steady-state path, so the trace call needs no
// tracing() guard against its argument boxing.
func (e *Engine) dropFrame(core topo.CoreID, why dropReason, src, tag int) {
	e.nDropped.Add(1)
	e.cfg.Trace.Recordf(trace.KindDrop, int(core), tag, 0, "%s from %d", why, src)
}

// handlePacket processes one arrived packet; caller holds pollLock,
// which serializes all packet handling and preserves per-(src,tag) FIFO.
// A frame validFrame refuses is dropped before anything else: it does
// not index a peer, stamp the sender's liveness or count as received.
//
// Packet ownership ends here: an eager frame that matchLone delivers
// straight from the packet is released when it returns; any other eager
// frame rides its arrival and is released once that is processed
// (possibly later, out of the stash);
// every other frame, an aggregated train included, is released as soon
// as its handler returns. A train's entries are walked in place:
// matchTrain delivers its in-order, expected prefix straight from the
// frame, and the entries after it become sub-arrivals that borrow the
// frame only while it is handled — one that a list keeps (the stash, the
// unexpected pool) first copies its bytes into pooled staging
// (arrival.own).
func (e *Engine) handlePacket(rail *nic.Driver, core topo.CoreID, p *wire.Packet) {
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindWireRecv, int(core), p.Tag, len(p.Payload), "%v from %d", p.Kind, p.Src)
	}
	why, msgLen, session := e.validFrame(p)
	if why != "" {
		e.dropFrame(core, why, p.Src, p.Tag)
		fabric.ReleasePacket(p)
		return
	}
	src := &e.peers[p.Src]
	if e.tel != nil {
		src.recvd.Inc()
	}
	if e.cfg.PeerDeadline > 0 {
		// Deadline tracking is on: every inbound frame is proof of life,
		// whatever its kind.
		src.lastHeard.Store(time.Now().UnixNano())
	}
	switch p.Kind {
	case wire.PktEager:
		if e.matchLone(core, p) {
			break
		}
		ev := newArrival(rail, p.Src, p.Tag, p.Seq)
		ev.payload, ev.pkt = p.Payload, p
		e.handleMatchable(core, ev)
		return
	case wire.PktAggr:
		for rest := e.matchTrain(core, p.Src, p.Payload); len(rest) > 0; {
			tag, seq, data, next := splitAggr(rest)
			ev := newArrival(rail, p.Src, tag, seq)
			ev.payload = data
			e.handleMatchable(core, ev)
			rest = next
		}
	case wire.PktRTS:
		e.handleRTSFrame(rail, core, p, msgLen, session)
	case wire.PktCTS:
		e.handleCTS(core, p)
	case wire.PktData:
		e.handleData(rail, core, p)
	case wire.PktDataAck:
		e.handleDataAck(core, p)
	case wire.PktPing:
		e.handlePing(rail, p)
	case wire.PktPong:
		e.handlePong(rail, p)
	}
	fabric.ReleasePacket(p)
}
