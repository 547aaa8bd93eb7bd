package core

import (
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

// wokenPkt is one packet BlockingWait pulled off a rail's blocking
// receive, queued for delivery by the next holder of pollLock.
type wokenPkt struct {
	rail *nic.Driver
	pkt  *wire.Packet
}

// enqueueWoken queues a blocking-receive arrival for the batched
// delivery path and is the only woken-queue producer. The length
// mirror is written under the lock, so it exactly matches the queue at
// every lock boundary.
func (e *Engine) enqueueWoken(rail *nic.Driver, p *wire.Packet) {
	e.wokenMu.Lock()
	e.woken = append(e.woken, wokenPkt{rail: rail, pkt: p})
	e.wokenLen.Store(int32(len(e.woken)))
	e.wokenMu.Unlock()
}

// drainWoken delivers every queued blocking-receive arrival; caller
// holds pollLock, which serializes drains. The queue swaps against a
// spare — both sides of the swap under one lock hold, so the two
// slices can never alias the same array — and the steady state
// recycles the two small arrays. The unlocked atomic length check
// keeps the common empty case to one load on the polling hot path; a
// racing producer it misses is picked up by that producer's own
// trailing Progress pass.
func (e *Engine) drainWoken(core topo.CoreID) bool {
	if e.wokenLen.Load() == 0 {
		return false
	}
	e.wokenMu.Lock()
	batch := e.woken
	e.woken = e.wokenSpare[:0]
	e.wokenSpare = batch[:0]
	e.wokenLen.Store(0)
	e.wokenMu.Unlock()
	// batch's array is now the spare: producers only ever append to
	// e.woken, and the next swap is serialized behind pollLock, so this
	// iteration owns the array until it returns.
	worked := false
	for i, w := range batch {
		batch[i] = wokenPkt{}
		e.handlePacket(w.rail, core, w.pkt)
		worked = true
	}
	return worked
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
	// Self-healing maintenance rides the progress loop: replay timers,
	// probation probes, weight retunes. Gated to near-zero cost when
	// nothing is pending.
	e.maybeMaint(n)
	if sampled {
		e.tel.dwell.ObserveDuration(time.Since(t0))
	}
	return worked
}

// BlockingWait implements the blocking-call fallback (§3.2): it parks on
// the default rail until a packet lands, delivers it, then runs one full
// progress pass for any follow-up work (e.g. answering an RTS).
//
// Endpoints only block on their own sockets, so in a bonded world a
// chunk can land on a secondary rail while the watcher sleeps on the
// default one. A full progress pass up front drains every rail's
// arrivals first, which bounds secondary-rail latency by the watcher
// cadence instead of by the next default-rail packet — the rail-selection
// gap that made bonded rendezvous hang before multirail went real.
//
// The woken packet rides the same batched delivery path as every polled
// arrival: it enters the woken queue and the trailing Progress pass
// delivers it under pollLock. Historically this path took a *blocking*
// pollLock.Lock — the one asymmetric acquisition in the engine — so a
// concurrent poller mid-drain could stall the watcher thread for a whole
// pass; now the watcher never waits on a lock. If a concurrent poller
// holds pollLock when the trailing pass runs, the packet stays queued —
// and the guard below keeps the watcher from parking on the rail while
// it waits: BlockingWait returns immediately, so its caller loops
// straight back into progress passes until whoever owns the lock (or a
// later pass here) delivers it.
func (e *Engine) BlockingWait(timeout time.Duration) bool {
	if e.Progress(-1) {
		return true
	}
	if e.wokenLen.Load() != 0 {
		// A woken packet from a lost pollLock race is still undelivered
		// — possibly the very arrival a blocking receive is waiting on.
		// Parking on the rail now would strand it for a whole timeout;
		// report work pending instead so the watcher retries promptly.
		e.Progress(-1)
		return true
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
	e.enqueueWoken(rail, p)
	e.Progress(-1)
	return true
}

// submitPending grabs the submission lock and drains the ready part of
// the send queue — one train only when bounded. fromApp marks
// submissions executed on the posting thread (the baseline path) as
// opposed to offloaded ones.
func (e *Engine) submitPending(core topo.CoreID, fromApp, bounded bool) bool {
	if !e.submitLock.TryLock() {
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
// until r has left the waiting list — the no-offload path: a classical
// engine's non-blocking send returns only once the packet has been handed
// to the NIC, spinning if the NIC is still busy.
func (e *Engine) submitInline(r *SendReq) {
	for {
		e.qlock.Lock()
		done := r.submitted
		e.qlock.Unlock()
		if done {
			return
		}
		e.submitPending(-1, true, false)
	}
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
	return e.trainBuf
}

// submitTrain puts one train on the wire and completes its requests.
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
		payload := encodeAggr(train)
		rail.SendAggr(railHeader(e.node, r0.dst, -1, r0.seq, 0), payload)
		e.nEager.Add(uint64(len(train)))
		e.nAggr.Add(uint64(len(train)))
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindSubmit, int(core), -1, len(payload), "dst=%d aggregated=%d", r0.dst, len(train))
		}
	}
	e.qlock.Lock()
	for _, r := range train {
		r.submitted = true
	}
	e.qlock.Unlock()
	for _, r := range train {
		r.req.Complete()
	}
}

// handlePacket processes one arrived packet; caller holds pollLock,
// which serializes all packet handling and preserves per-(src,tag) FIFO.
// The source rank is input from outside the process: a frame naming one
// outside the world is dropped before anything indexes a peer with it.
//
// A control frame is outside input the engine has no use for — nothing
// in this engine sends one — so it is dropped and counted like a frame
// from outside the world. So is a frame of a kind the engine does not
// know, and an aggregated train whose entries do not tile its payload
// exactly (validAggr).
//
// Packet ownership ends here: an eager frame rides its arrival and is
// released once that is processed (possibly later, out of the stash);
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
	if !e.inWorld(p.Src) || p.Kind == wire.PktCtrl {
		e.nDropped.Add(1)
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
		ev := newArrival(rail, p.Src, p.Tag, p.Seq)
		ev.payload, ev.pkt = p.Payload, p
		e.handleMatchable(core, ev)
		return
	case wire.PktAggr:
		if !validAggr(p.Payload) {
			e.nDropped.Add(1)
			break
		}
		for rest := e.matchTrain(core, p.Src, p.Payload); len(rest) > 0; {
			tag, seq, data, next := splitAggr(rest)
			ev := newArrival(rail, p.Src, tag, seq)
			ev.payload = data
			e.handleMatchable(core, ev)
			rest = next
		}
	case wire.PktRTS:
		e.handleRTSFrame(rail, core, p)
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
	default:
		e.nDropped.Add(1)
	}
	fabric.ReleasePacket(p)
}
