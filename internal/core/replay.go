package core

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"pioman/internal/nic"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// Acked rendezvous replay — the engine-level reliability sublayer.
//
// A rendezvous send no longer completes when its DATA was posted: the
// sender keeps the request (and with it the application buffer, which
// doubles as the replay buffer — zero copies, zero extra allocations)
// until the receiver's DATA-ack arrives. A maintenance tick piggybacked
// on the progress loop re-posts whatever went unacknowledged past its
// deadline, with per-request exponential backoff: an unanswered RTS is
// re-sent as a replay-RTS, an unacked DATA transfer is re-striped from
// the retained buffer. The receive side makes both idempotent — interval
// reassembly absorbs duplicate chunks, a bounded done-ring re-acks
// transfers that already completed, and the RTS path recognizes
// duplicates at every stage of the handshake. Together these turn
// "a rail died after the span was submitted" from a silent hang into a
// bounded-delay retry, on every backend (docs/FABRIC.md).

const (
	// replayRTOInit is the first resend deadline for a freshly posted
	// RTS or DATA transfer: comfortably above any healthy handshake
	// round trip (µs on the simulator, well under 25ms on loopback
	// transports), so the no-loss path never replays.
	replayRTOInit = 25 * time.Millisecond
	// replayRTOMax caps the exponential backoff between resends of one
	// request, mirroring udpfab's 250ms retransmit cap at engine scale.
	replayRTOMax = 400 * time.Millisecond
	// maintPeriod is the minimum spacing between maintenance scans; the
	// CAS gate in maybeMaint makes one core pay each scan.
	maintPeriod = 5 * time.Millisecond
	// maintRunning is nextMaint while a scan runs: a due time no clock
	// reaches, so every other core's gate check fails until the scan's
	// owner stores the next real one.
	maintRunning = math.MaxInt64
	// maintPassMask gates the maintenance clock read to 1 pass in 16, so
	// a spin-polling core is not serialized on time.Now.
	maintPassMask = 15
	// doneRingCap bounds each peer's completed-rendezvous memory used for
	// re-acking duplicates. 512 entries outlive any plausible replay
	// window (replayRTOMax × a handful of backoffs) at full message rate.
	doneRingCap = 512
	// defaultMaxPendingRdv is the per-peer unacked rendezvous window when
	// Config.maxPendingRdvPerPeer is zero: enough to keep a pipeline of
	// large transfers striped across every rail, small enough that the
	// replay timer's scan and the retained replay buffers stay bounded
	// when an application bursts thousands of Isends at one peer.
	defaultMaxPendingRdv = 128
)

// sessionSalt makes session ids unique across the engines of one
// process, which share a clock.
var sessionSalt atomic.Uint64

// newSessionID mints a nonzero engine-incarnation id. Uniqueness needs
// to hold only against this engine's own predecessors (a restarted peer
// must look different), so wall-clock nanos salted per-process suffice.
func newSessionID() uint64 {
	return uint64(time.Now().UnixNano())<<8 | (sessionSalt.Add(1) & 0xff) | 1
}

// maybeMaint runs the self-healing maintenance scan when it is due: the
// rendezvous resend timer and probation-rail health probes. n is the
// progress-pass count; the pass mask plus two atomic loads keep the
// common idle case (nothing pending, every rail active) at a handful of
// instructions per pass.
func (e *Engine) maybeMaint(n uint64) {
	if n&maintPassMask != 0 {
		return
	}
	if e.pendingRdv.Load() == 0 && e.probationCount.Load() == 0 {
		return
	}
	now := time.Now().UnixNano()
	next := e.nextMaint.Load()
	if now < next || !e.nextMaint.CompareAndSwap(next, maintRunning) {
		return
	}
	// The CAS winner owns the scan — maintBuf and maintDone — until it
	// stores the next due time.
	if e.pendingRdv.Load() > 0 {
		e.replayDue(now)
	}
	e.railMaint(now)
	e.nextMaint.Store(now + int64(maintPeriod))
}

// replayDue re-posts every rendezvous send whose resend deadline passed,
// walking each peer's unacked window: a send still in its RTS phase (no
// CTS yet) gets a replay-RTS; one in its DATA phase (no ack yet) gets
// its transfer re-striped from the retained application buffer.
// Deadlines and backoff are advanced under qlock; the sends happen
// outside it. While a request is being replayed its `replaying` flag
// parks any concurrently arriving ack (handleDataAck defers the
// completion to us), so the request cannot be completed — and recycled
// by the application — under the resend.
func (e *Engine) replayDue(nowNanos int64) {
	now := time.Unix(0, nowNanos)
	deadline := int64(e.cfg.PeerDeadline)
	var suspects []int
	// buf[:nrts] collects the RTS-phase requests, the rest the DATA-phase
	// ones: the phase is read here, under qlock, because a CTS may flip
	// it while the resend below runs unlocked.
	buf := e.maintBuf[:0]
	nrts := 0
	e.qlock.Lock()
	for i := range e.peers {
		for _, s := range e.peers[i].window {
			if !now.After(s.nextResend) {
				continue
			}
			s.bumpBackoff(now)
			s.replaying = true
			buf = append(buf, s)
			if s.phase == phaseRTS {
				last := len(buf) - 1
				buf[nrts], buf[last] = buf[last], buf[nrts]
				nrts++
			}
			if deadline > 0 && !slices.Contains(suspects, s.dst) && e.silentPast(s.dst, s.postedAt, nowNanos, deadline) {
				suspects = append(suspects, s.dst)
			}
		}
	}
	e.qlock.Unlock()
	// Death verdicts first: MarkPeerDead tears the rank's replay state
	// down and parks each mid-replay request's error completion on it
	// (exactly as a racing ack would), which the retire pass below then
	// runs. Replays toward a rank just declared dead are skipped — there
	// is nobody to answer them.
	for _, rank := range suspects {
		e.MarkPeerDead(rank)
	}
	for i, s := range buf {
		if len(suspects) > 0 && e.PeerDead(s.dst) {
			continue
		}
		e.nReplays.Add(1)
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindRTS, -1, s.tag, s.Len(), "replay msgid=%d", s.msgID)
		}
		if i < nrts {
			// No CTS yet: the RTS (or its CTS) was lost, or the receiver
			// restarted. Replay-RTS frames bypass the receiver's stream
			// ordering (the original may already have been processed).
			e.railFor(s.dst).SendRTS(railHeader(e.node, s.dst, s.tag, s.seq, s.msgID), s.Len(), e.session, true)
		} else {
			// CTS seen, ack missing: re-stripe the data from the retained
			// buffer. dataRails skips probation rails, so the resend
			// lands on whatever is healthy now.
			e.sendRdvData(-1, s)
		}
	}
	// Retire the replaying flags and run any completions an ack parked
	// while we were resending.
	done := e.maintDone[:0]
	e.qlock.Lock()
	for i, s := range buf {
		buf[i] = nil
		s.replaying = false
		if s.ackDeferred {
			s.ackDeferred = false
			done = append(done, s)
		}
	}
	e.qlock.Unlock()
	e.maintBuf = buf
	for i, s := range done {
		done[i] = nil
		if err := s.failed; err != nil {
			s.req.CompleteErr(err)
		} else {
			s.req.Complete()
		}
	}
	e.maintDone = done
}

// answerReplay tries to answer a resent rendezvous request from existing
// state. Replays arrive outside the sender-stream ordering (the original
// RTS consumed — or still holds — the sequence number), so it looks up
// which stage the handshake reached and re-emits exactly the response
// the sender is missing:
//
//	transfer completed (done-ring)      → re-ack
//	reception in flight (recving)       → re-CTS (the CTS was lost)
//	RTS buffered unexpected             → drop (Irecv will answer it)
//	original RTS stashed out-of-order   → drop (the gap will deliver it)
//	sequence long past, no state        → re-ack (aged out of the ring)
//	sequence not yet reached            → not answered: it reports false
//	                                      and the caller processes the
//	                                      replay as the original RTS
func (e *Engine) answerReplay(rail *nic.Driver, p *wire.Packet) bool {
	src := &e.peers[p.Src]
	e.qlock.Lock()
	done := src.done.has(p.MsgID)
	live := src.recving[p.MsgID] != nil
	queued := src.stash[p.Seq] != nil || slices.ContainsFunc(e.unexpected, func(u *arrival) bool {
		return u.isRTS && u.src == p.Src && u.msgID == p.MsgID
	})
	past := p.Seq <= src.lastSeq
	e.qlock.Unlock()
	h := railHeader(e.node, p.Src, p.Tag, p.Seq, p.MsgID)
	switch {
	case done:
		rail.SendControl(wire.PktDataAck, h)
	case live:
		rail.SendControl(wire.PktCTS, h)
	case queued:
	case past:
		// No trace of the rendezvous remains: it completed long enough ago
		// to age out of the done-ring. Re-ack so the sender stops replaying.
		rail.SendControl(wire.PktDataAck, h)
	default:
		return false
	}
	return true
}

// noteSession records the sender's engine-incarnation id. A changed id
// means the peer restarted mid-conversation: everything addressed to or
// expected from the dead incarnation is failed through the same teardown
// a death verdict runs, and the receive stream adopts the new one at seq
// (the RTS carrying the id), so the fresh engine's traffic proceeds
// instead of colliding with ghosts. Frames from a rank currently declared
// dead teach nothing — they may belong to either incarnation.
func (e *Engine) noteSession(src int, sess, seq uint64) {
	if sess == 0 || src == e.node {
		return
	}
	p := &e.peers[src]
	restarted := false
	e.qlock.Lock()
	if !p.dead.Load() {
		restarted = p.session != 0 && p.session != sess
		if p.session == 0 {
			p.session = sess
		}
	}
	e.qlock.Unlock()
	if restarted {
		e.failPeer(src, sess, seq-1)
	}
}
