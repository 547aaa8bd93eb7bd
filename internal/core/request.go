package core

import (
	"runtime"
	"sync"
	"time"

	"pioman/internal/piom"
	"pioman/internal/ptime"
	"pioman/internal/sched"
	"pioman/internal/topo"
	"pioman/internal/trace"
)

// Request freelists. Isend/Irecv draw their request structs here so the
// steady-state communication path allocates nothing per operation; a
// request flows back via its Release method once the owner is done with
// it. Release is an optimization, not an obligation: requests that are
// never released are reclaimed by the GC exactly as before, so only
// callers that own the full lifecycle (the mpi layer's blocking
// wrappers, benchmark loops) need bother.
var (
	sendReqPool = sync.Pool{New: func() any { return new(SendReq) }}
	recvReqPool = sync.Pool{New: func() any { return new(RecvReq) }}
)

// SendReq is an asynchronous send request. An eager send completes when
// its payload has been submitted to the NIC (copied out of the
// application buffer). A rendezvous send completes when the receiver's
// DATA-ack arrives — the self-healing protocol's end-to-end
// acknowledgment — so the application buffer, which doubles as the
// zero-copy replay buffer, stays untouchable until the peer provably
// holds the whole payload.
type SendReq struct {
	req   piom.Request
	dst   int
	tag   int
	seq   uint64
	msgID uint64 // rendezvous only
	data  []byte
	rdv   bool
	// phase is where a rendezvous send in its peer's unacked window
	// stands (RTS posted, or CTS seen and DATA posted); guarded by qlock.
	phase rdvPhase
	// Acked-replay timer state, guarded by qlock: the resend deadline
	// and its capped exponential backoff. replaying marks a request the
	// maintenance tick is re-sending right now; an ack that lands
	// mid-resend must not complete (and let the application recycle) the
	// request under the resend, so it parks the completion in
	// ackDeferred and replayDue runs it afterwards.
	nextResend  time.Time
	backoff     time.Duration
	replaying   bool
	ackDeferred bool
	// failed, guarded by qlock, carries the error a deferred completion
	// must surface: when the death sweep finds the request mid-replay it
	// cannot complete it under the resend, so the error parks here and
	// replayDue's retire pass completes with it.
	failed error
	// postedAt stamps when the rendezvous send was posted; only set when
	// Config.PeerDeadline is active, where it anchors the silence
	// measurement (silence counts from max(lastHeard, postedAt)).
	postedAt time.Time
	// rtsAt stamps when the RTS was posted, for the metered engine's
	// handshake-latency histogram. Only set when metrics are attached,
	// and only on the rendezvous path — the eager hot path never reads
	// the clock for it.
	rtsAt time.Time
}

// arm (re)starts the replay timer at its initial deadline; the caller
// holds qlock or still owns the request exclusively.
func (r *SendReq) arm() {
	r.backoff = replayRTOInit
	r.nextResend = time.Now().Add(replayRTOInit)
}

// bumpBackoff advances the resend deadline with capped exponential
// backoff; caller holds qlock.
func (r *SendReq) bumpBackoff(now time.Time) {
	r.backoff *= 2
	if r.backoff > replayRTOMax {
		r.backoff = replayRTOMax
	}
	r.nextResend = now.Add(r.backoff)
}

// Dst returns the destination node.
func (r *SendReq) Dst() int { return r.dst }

// Tag returns the communication tag.
func (r *SendReq) Tag() int { return r.tag }

// Len returns the payload length.
func (r *SendReq) Len() int { return len(r.data) }

// Rendezvous reports whether the send uses the rendezvous protocol.
func (r *SendReq) Rendezvous() bool { return r.rdv }

// Completed reports whether the send has finished.
func (r *SendReq) Completed() bool { return r.req.Completed() }

// Err returns the error the send completed with — ErrPeerDead when the
// destination rank was declared dead — or nil. Valid after completion.
func (r *SendReq) Err() error { return r.req.Err() }

// Req exposes the underlying event-server request.
func (r *SendReq) Req() *piom.Request { return &r.req }

// Release returns a completed request to the engine's freelist. The
// caller must be the request's sole owner and must not touch r again:
// the next Isend anywhere in the process may reuse the struct.
// Releasing an incomplete request panics — the engine still holds it.
func (r *SendReq) Release() {
	if !r.req.Completed() {
		panic("core: Release of an incomplete SendReq")
	}
	*r = SendReq{}
	sendReqPool.Put(r)
}

// RecvReq is an asynchronous receive request.
type RecvReq struct {
	req piom.Request
	src int // AnySource or a node id
	tag int
	buf []byte
	// Guarded by qlock until completion:
	n         int
	from      int
	gotTag    int
	truncated bool
	// rdv is the rendezvous reception state while the request sits in
	// its sender's peer.recving (expectData); embedding it saves an
	// allocation per message. It also means the state lives only as
	// long as the request: a death sweep can fail the reception while
	// handleData copies a chunk, and the application may then Release
	// and reuse this struct. So handleData reads buf under qlock, copies
	// outside it, and calls addSpan or completes only under qlock after
	// re-checking that recving still maps the msgID to &r.rdv.
	rdv rdvRecvState
}

// Completed reports whether the receive has finished.
func (r *RecvReq) Completed() bool { return r.req.Completed() }

// Err returns the error the receive completed with — ErrPeerDead when
// the named source rank was declared dead — or nil. Valid after
// completion.
func (r *RecvReq) Err() error { return r.req.Err() }

// Req exposes the underlying event-server request.
func (r *RecvReq) Req() *piom.Request { return &r.req }

// Len returns the received byte count (valid after completion).
func (r *RecvReq) Len() int { return r.n }

// From returns the sender's node id (valid after completion).
func (r *RecvReq) From() int { return r.from }

// MatchedTag returns the tag of the matched message (valid after
// completion); useful when the receive was posted with AnyTag.
func (r *RecvReq) MatchedTag() int { return r.gotTag }

// Truncated reports whether the message exceeded the posted buffer (valid
// after completion).
func (r *RecvReq) Truncated() bool { return r.truncated }

// Release returns a completed request to the engine's freelist. The
// caller must have read every result it needs (Len, From, MatchedTag,
// Truncated) and must not touch r again: the next Irecv anywhere in the
// process may reuse the struct. Releasing an incomplete request panics.
func (r *RecvReq) Release() {
	if !r.req.Completed() {
		panic("core: Release of an incomplete RecvReq")
	}
	*r = RecvReq{}
	recvReqPool.Put(r)
}

// Isend posts an asynchronous send of data to dst under tag.
//
// In Multithreaded mode with offloading, this only registers the request
// and generates a progress event — "the asynchronous send actually only
// registers the request in a work list and generates an event" (§2.1) —
// so it returns in well under a microsecond regardless of size. In
// Sequential mode (or with offloading disabled) the eager submission cost
// is paid here, on the calling thread, as classical engines do.
//
// The caller must not modify data until the request completes.
func (e *Engine) Isend(dst, tag int, data []byte) *SendReq {
	e.checkRank("Isend", dst)
	if e.cfg.Mode == Sequential {
		// Library-wide mutex of the baseline: entering the library
		// contends with any other thread's call, including long
		// wait-driven progress passes.
		e.biglock.Lock()
		defer e.biglock.Unlock()
	}
	if e.postFailsFast(dst) {
		return e.failSend(dst, tag, data)
	}
	r := sendReqPool.Get().(*SendReq)
	r.dst, r.tag, r.data = dst, tag, data
	r.rdv = len(data) > e.railFor(dst).EagerMax()
	e.nSends.Add(1)
	p := &e.peers[dst]
	if e.tel != nil {
		p.sent.Inc()
	}
	if r.rdv {
		e.startRdv(r)
		return r
	}

	e.qlock.Lock()
	p.nextSeq++
	r.seq = p.nextSeq
	e.sendq.push(r)
	e.qlock.Unlock()
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRegister, -1, tag, len(data), "isend dst=%d seq=%d", dst, r.seq)
	}

	if e.cfg.Mode == Multithreaded {
		if e.cfg.OffloadEager {
			if e.cfg.AdaptiveOffload && e.sch != nil && e.sch.IdleCores() == 0 {
				// Adaptive policy (the paper's future-work strategy):
				// nobody is idle to run the offloaded submission, so
				// deferring would only delay it to the wait — submit
				// inline instead.
				e.submitInline(r)
				return r
			}
			// Registration only: an idle core picks up the submission.
			if e.tracing() {
				e.cfg.Trace.Recordf(trace.KindEventCreate, -1, tag, len(data), "offload pending")
			}
			e.kick()
			return r
		}
		// Offload disabled (ablation): the communicating thread submits
		// inline, like classical thread-safe engines (§2.2: "the packet
		// is actually submitted to the network by the application thread
		// itself"), spinning until the NIC accepted it.
		e.submitInline(r)
		return r
	}
	// Sequential baseline: the send stays in the waiting list until the
	// library is re-entered. The original NewMadeleine's scheduler "is
	// only activated when a NIC becomes idle" — nothing progresses while
	// the application computes, which is exactly why Fig. 5 measures
	// sum(communication, computation) for it.
	return r
}

// Irecv posts an asynchronous receive into buf, matching sender src (or
// AnySource) and tag. If a matching unexpected message already arrived it
// completes immediately, paying the pool-to-application copy here (§2.2's
// second copy).
func (e *Engine) Irecv(src, tag int, buf []byte) *RecvReq {
	if src != AnySource {
		e.checkRank("Irecv", src)
	}
	if e.cfg.Mode == Sequential {
		e.biglock.Lock()
		defer e.biglock.Unlock()
	}
	if src != AnySource && e.postFailsFast(src) {
		return e.failRecv(src, tag, buf)
	}
	r := recvReqPool.Get().(*RecvReq)
	r.src, r.tag, r.buf = src, tag, buf
	e.nRecvs.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRegister, -1, tag, len(buf), "irecv src=%d", src)
	}

	e.qlock.Lock()
	u := e.takeUnexpected(src, tag)
	if u == nil {
		e.posted = append(e.posted, r)
		e.qlock.Unlock()
		e.kick()
		return r
	}
	e.qlock.Unlock()
	e.deliverUnexpected(r, u)
	return r
}

// kick pokes the event server so a pending operation is noticed promptly
// even if every core is mid-quantum.
func (e *Engine) kick() {
	if e.cfg.Mode == Multithreaded && e.srv != nil {
		e.srv.Schedule()
	}
}

// Wait blocks the calling thread until req completes, driving progress
// per the engine mode.
//
// The Sequential engine polls inline under the library-wide mutex — that
// is the only progress it ever makes. The Multithreaded engine spins
// briefly on the event server, for the budget the server derived from
// the host (piom.Server.WaitSpin) — completions usually arrive from
// another core within a few µs — then genuinely blocks: the thread
// releases its core — so the freed core's worker starts polling — and
// Marcel reschedules it when whichever core detects the event sets the
// completion flag (§3.2: "Pioman unblocks the corresponding thread and
// asks Marcel to schedule it"). Blocking without releasing the core
// would deadlock a fully-loaded node: every core would sit in a blocked
// thread with nobody left to poll.
//
// Both loops run pollStep, which follows a pass that did no work on a
// goroutine-fed rail with runtime.Gosched (docs/PERF.md, "Cooperative
// waits").
func (e *Engine) Wait(req *piom.Request, th *sched.Thread) {
	if req.Completed() {
		return
	}
	if e.cfg.Mode == Sequential || e.srv == nil {
		// Each progress step holds the library-wide mutex, as the
		// baseline's thread-safety model dictates; the lock is released
		// between single-event steps so other threads' library calls
		// interleave at event granularity.
		e.pollUntil(th, time.Time{}, req.Completed)
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindWakeup, int(th.Core()), -1, 0, "inline")
		}
		return
	}
	core := th.Core()
	deadline := time.Now().Add(e.srv.WaitSpin())
	// The budget check rides the step's done check, ahead of its yield,
	// and the completion check also leads each step: a frame delivered
	// while the waiter yielded ends the wait at once, without one more
	// pass, and one found by that pass is not left to th.Block.
	spent := func() bool { return req.Completed() || time.Now().After(deadline) }
	for !req.Completed() && !e.pollStep(core, spent) {
	}
	if !req.Completed() {
		th.Block(req.Flag())
	}
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindWakeup, int(core), -1, 0, "event")
	}
}

// pollStep is the one polling step every wait loop runs: a progress
// pass for the engine mode — the Sequential baseline's bounded pass
// under the library-wide mutex, or one event-server poll — and then a
// done check. It reports whether done holds. Otherwise, after a pass
// that did no work on a goroutine-fed rail (fabric.GoroutineFed:
// tcpfab, udpfab), it hands the processor over with runtime.Gosched:
// the frame being waited for is read off its socket by a goroutine of
// the endpoint, and a waiter that never leaves its processor keeps that
// goroutine queued until Go's preemption tick. Rails whose poll moves
// the frames itself are exempt.
func (e *Engine) pollStep(core topo.CoreID, done func() bool) bool {
	var worked bool
	if e.cfg.Mode == Sequential || e.srv == nil {
		e.biglock.Lock()
		worked = e.progress(core, true)
		e.biglock.Unlock()
	} else {
		worked = e.pollUncounted(core)
	}
	if done() {
		return true
	}
	if !worked && e.goroutineFed {
		runtime.Gosched()
	}
	return false
}

// pollUntil runs pollStep on th until done holds, or until deadline
// passes when it is nonzero, and reports whether done held. Every
// sequentialYieldQuantum the thread yields its core, so a polling loop
// never starves sibling threads on a fully-loaded node.
//
// On a goroutine-fed rail a Multithreaded loop spins like Wait, for the
// server's WaitSpin budget, and then parks in BlockingWait for up to
// that budget per step. Yielding alone is not enough there:
// runtime.Gosched hands the processor to runnable goroutines only, and
// a transport goroutine parked in Go's netpoller is woken by an idle
// processor or by the runtime's 10 ms monitor — so at GOMAXPROCS=1 a
// loop that only ever yields leaves each frame to the monitor.
func (e *Engine) pollUntil(th *sched.Thread, deadline time.Time, done func() bool) bool {
	if done() {
		return true
	}
	yieldAt := time.Now().Add(sequentialYieldQuantum)
	var parkAt time.Time
	if e.goroutineFed && e.cfg.Mode == Multithreaded && e.srv != nil {
		parkAt = time.Now().Add(e.srv.WaitSpin())
	}
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		if !parkAt.IsZero() && time.Now().After(parkAt) {
			e.BlockingWait(e.srv.WaitSpin())
			if done() {
				return true
			}
		} else if e.pollStep(th.Core(), done) {
			return true
		}
		if time.Now().After(yieldAt) {
			th.Yield()
			yieldAt = time.Now().Add(sequentialYieldQuantum)
		}
	}
}

// sequentialYieldQuantum bounds how long a polling wait monopolizes a
// core before letting other runnable threads in.
const sequentialYieldQuantum = 100 * time.Microsecond

// pollUncounted runs one event-server poll. Under virtual-time CPU
// charging (ptime.SetVirtual) the poll is wrapped Uncounted: progress
// work a waiting thread happens to pick up stands in for work an idle
// core would have done in parallel, so billing it to the waiter would
// serialize in virtual time what the Multithreaded engine overlaps in
// real time. The Sequential baseline never comes through here — its
// inline progress is the cost the engine pays by design, and it stays
// fully counted.
func (e *Engine) pollUncounted(core topo.CoreID) (worked bool) {
	if ptime.VirtualEnabled() {
		ptime.Uncounted(func() { worked = e.srv.Poll(core) })
		return worked
	}
	return e.srv.Poll(core)
}

// WaitSend waits for a send request on the calling thread.
func (e *Engine) WaitSend(r *SendReq, th *sched.Thread) { e.Wait(&r.req, th) }

// WaitRecv waits for a receive request on the calling thread.
func (e *Engine) WaitRecv(r *RecvReq, th *sched.Thread) { e.Wait(&r.req, th) }
