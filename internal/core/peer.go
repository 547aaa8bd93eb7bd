package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"pioman/internal/telemetry"
	"pioman/internal/trace"
)

// peer is everything the engine knows about one rank of the world: one
// place to read — and, at death or restart, to discard — a rank's whole
// protocol state. The engine holds one per rank in a slice sized at
// construction, so the per-message path indexes by rank instead of
// hashing, and a teardown is reset() instead of a scan over engine-wide
// maps. Maps inside are allocated on first use: a thousand-rank engine
// pays for the ranks it actually talks to.
type peer struct {
	// Send side, guarded by qlock.
	//
	// Stream ordering: the wire interleaves small packets past bulk
	// transfers, so matchable packets (eager data and RTS) carry a
	// per-destination sequence number and are processed strictly in that
	// order at the receiver. nextSeq is the last one assigned toward the
	// rank. This is the matching-order guarantee MX provides above its
	// fragmenting wire.
	nextSeq uint64
	// window holds, by msgID, the rendezvous sends toward the rank that
	// the receiver has not DATA-acked yet — the sender half of the
	// acked-replay protocol, with SendReq.phase telling RTS-posted from
	// DATA-posted. The application buffer doubles as the replay buffer
	// (the send is not complete, so the caller must not touch it), which
	// keeps replay zero-copy. len(window) is the in-flight count the
	// per-peer cap bounds; parked is the overflow — sends whose sequence
	// number is assigned but whose RTS stays off the wire until a
	// DATA-ack frees a slot. FIFO.
	window map[uint64]*SendReq
	parked []*SendReq

	// Receive side, guarded by qlock.
	//
	// lastSeq is the last sequence number processed from the rank;
	// arrivals ahead of lastSeq+1 wait in stash until the gap fills.
	lastSeq uint64
	stash   map[uint64]*arrival
	// recving holds in-flight rendezvous receptions by msgID. msgIDs are
	// only unique per origin engine — two senders' concurrent rendezvous
	// to this node routinely carry the same msgID, and multirail's
	// failover resends make stray DATA chunks a designed occurrence — so
	// keeping the map per sender is load-bearing, not tidiness.
	recving map[uint64]*rdvRecvState
	// done remembers recently completed receptions so a replayed RTS or
	// DATA chunk for one of them is re-acked instead of re-executed — the
	// receive-side idempotence of the replay protocol. One ring per
	// sender: a chatty rank cannot evict a quiet rank's memory.
	done doneRing
	// session is the sender's engine-incarnation id last seen in an RTS;
	// zero until the first one.
	session uint64

	// Liveness and counters: atomics, read and written outside qlock.
	//
	// dead is set by MarkPeerDead and cleared by MarkPeerAlive.
	// lastHeard stamps (unix nanos) the last frame from the rank and is
	// only maintained when Config.PeerDeadline is set — without it the
	// receive path never reads the clock. sent and recvd back the
	// "node<r>.peer.<k>.*" series and only move on a metered engine.
	dead      atomic.Bool
	lastHeard atomic.Int64
	sent      telemetry.Counter
	recvd     telemetry.Counter
}

// doneRing is a bounded memory of completed rendezvous msgIDs, oldest
// evicted first. Lookups scan it: they happen only on the replay path
// (a chunk or RTS with no live state), where a few hundred comparisons
// are noise next to the retransmission that caused them, and in exchange
// completing a transfer costs one store instead of a map insert plus a
// map delete. The backing array is allocated on the first completion, so
// an N-rank engine does not pay N × doneRingCap up front.
type doneRing struct {
	ids []uint64
	pos int
}

// add remembers id, evicting the oldest entry once the ring is full.
func (d *doneRing) add(id uint64) {
	if d.ids == nil {
		d.ids = make([]uint64, 0, doneRingCap)
	}
	if len(d.ids) < doneRingCap {
		d.ids = append(d.ids, id)
		return
	}
	d.ids[d.pos] = id
	d.pos = (d.pos + 1) % doneRingCap
}

// has reports whether id is still remembered.
func (d *doneRing) has(id uint64) bool { return slices.Contains(d.ids, id) }

// reset discards every piece of protocol state tied to the rank's
// current incarnation — both stream counters (so either direction
// restarts at 1), the session id, the replay window, parked sends,
// in-flight receptions, the done-ring and the out-of-order stash — and
// returns what the caller must finish outside qlock: the rendezvous
// sends and receptions to fail, and the stashed arrivals to release.
// Caller holds qlock.
func (p *peer) reset() (sends []*SendReq, recvs []*RecvReq, orphans []*arrival) {
	for _, s := range p.window {
		sends = append(sends, s)
	}
	sends = append(sends, p.parked...)
	for _, st := range p.recving {
		recvs = append(recvs, st.req)
	}
	for _, ev := range p.stash {
		orphans = append(orphans, ev)
	}
	p.nextSeq, p.lastSeq, p.session = 0, 0, 0
	p.window, p.parked, p.recving, p.stash, p.done = nil, nil, nil, nil, doneRing{}
	return sends, recvs, orphans
}

// Rank-death detection and bounded-failure request semantics
// (docs/CLUSTER.md). Before this layer existed a crashed peer was a
// silent hang: the acked-replay timer re-sent RTS/DATA forever at the
// 400ms backoff cap and Wait never returned. Now death is a detected,
// reported, survivable event:
//
//   - detection is send-driven: with Config.PeerDeadline set, the replay
//     timer's overdue scan checks how long the peer has been silent —
//     nothing heard on any rail since max(last inbound frame, the
//     request's posting) — and past the deadline declares the rank dead.
//     Silence across every rail while replays go unanswered is the
//     rail-health consensus of the registry-less mode; a cluster layer
//     with a real failure detector (missed heartbeats at the registry)
//     short-circuits it by calling MarkPeerDead directly;
//   - the death sweep completes every pending request targeting the rank
//     with ErrPeerDead — rendezvous sends in the replay window, parked
//     sends, posted receives naming the rank, in-flight rendezvous
//     receptions — and new posts to it fail fast;
//   - survivors keep communicating: only the dead rank's peer state is
//     touched, AnySource receives stay posted, and the mpi layer shrinks
//     its collectives to the survivor set.
//
// The no-failure fast path pays one atomic load per post (deadCount) and,
// only when PeerDeadline is set, one clock stamp per inbound frame.

// ErrPeerDead is the completion error of every request targeting a rank
// that was declared dead — by deadline detection or by the cluster
// layer's MarkPeerDead. Waits on such requests return normally; the
// request's Err reports the reason.
var ErrPeerDead = errors.New("core: peer rank is dead")

// inWorld reports whether rank names one of the engine's peers.
func (e *Engine) inWorld(rank int) bool { return uint(rank) < uint(len(e.peers)) }

// checkRank panics when an application post names a rank outside the
// world — a caller bug the per-rank maps used to absorb silently. The
// panic lives in badRank, so the check itself inlines into every post.
func (e *Engine) checkRank(op string, rank int) {
	if !e.inWorld(rank) {
		e.badRank(op, rank)
	}
}

// badRank raises checkRank's panic.
//
//go:noinline
func (e *Engine) badRank(op string, rank int) {
	panic(fmt.Sprintf("core: %s names rank %d outside the world of %d ranks", op, rank, len(e.peers)))
}

// PeerDead reports whether rank has been declared dead on this engine.
func (e *Engine) PeerDead(rank int) bool {
	return e.inWorld(rank) && e.peers[rank].dead.Load()
}

// postFailsFast reports whether a new post targeting rank must fail
// immediately. The deadCount gate keeps the all-alive hot path to one
// atomic load.
func (e *Engine) postFailsFast(rank int) bool {
	return e.deadCount.Load() != 0 && e.peers[rank].dead.Load()
}

// silentPast reports whether dst has been silent longer than the
// deadline, measured from whichever is later: the last frame heard from
// it, or the stalled request's own posting. The posting stamp is what
// keeps an alive-but-quiet peer (heard from long ago, nothing owed
// since) from being declared dead the moment a new request stalls
// briefly: silence only counts from when this request started asking.
func (e *Engine) silentPast(dst int, postedAt time.Time, nowNanos, deadline int64) bool {
	if dst == e.node {
		return false
	}
	ref := e.peers[dst].lastHeard.Load()
	if p := postedAt.UnixNano(); !postedAt.IsZero() && p > ref {
		ref = p
	}
	return nowNanos-ref > deadline
}

// MarkPeerDead declares rank dead: every pending request targeting it
// completes with ErrPeerDead, new posts to it fail fast, matchable
// frames still arriving from it are dropped, and the rank's protocol
// state is reset — stream counters and session included, so a respawned
// incarnation (MarkPeerAlive) starts both directions at sequence 1.
// Idempotent — one caller wins; safe from any goroutine (the cluster
// layer's liveness callback calls it concurrently with the progress
// loop). Out-of-range ranks and the engine's own are ignored.
//
// Survivor state is untouched: receives posted with AnySource stay
// posted, completed unexpected eager data from the dead rank stays
// deliverable (the payload already arrived), and traffic to every other
// rank proceeds.
func (e *Engine) MarkPeerDead(rank int) {
	if rank == e.node || !e.inWorld(rank) {
		return
	}
	if !e.peers[rank].dead.CompareAndSwap(false, true) {
		return
	}
	e.deadCount.Add(1)
	e.nPeerDead.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindComplete, -1, -1, 0, "peer %d declared dead", rank)
	}
	e.failPeer(rank, 0, 0)
}

// failPeer resets rank's peer state and completes everything that was
// pending on the discarded incarnation with ErrPeerDead. It is the one
// teardown, shared by the death verdict and by noteSession's discovery
// that the rank restarted; sess and lastSeq seed the successor's receive
// stream in the second case and are zero in the first, where nothing is
// known of a successor yet.
func (e *Engine) failPeer(rank int, sess, lastSeq uint64) {
	p := &e.peers[rank]
	e.qlock.Lock()
	sends, recvs, orphans := p.reset()
	p.session, p.lastSeq = sess, lastSeq
	e.pendingRdv.Add(-int64(len(sends)))
	failed := len(sends)
	// A request the maintenance tick is re-sending right now is not
	// completed under the resend: the failure parks on it exactly like a
	// racing ack would, and replayDue completes it afterwards. (Parked
	// sends have nothing on the wire, so they are never mid-replay.)
	idle := sends[:0]
	for _, s := range sends {
		if s.replaying {
			s.failed, s.ackDeferred = ErrPeerDead, true
		} else {
			idle = append(idle, s)
		}
	}
	// Posted receives naming the rank; AnySource survives (another rank
	// can still match it).
	e.posted.deleteFunc(func(r *RecvReq) bool {
		if r.src != rank {
			return false
		}
		recvs = append(recvs, r)
		return true
	})
	// Unexpected RTS announcements from the rank are dropped — a future
	// receive matching one would CTS into the void and hang. Buffered
	// eager payloads stay: they are complete and deliverable.
	e.unexpected = slices.DeleteFunc(e.unexpected, func(u *arrival) bool {
		if !u.isRTS || u.src != rank {
			return false
		}
		orphans = append(orphans, u)
		return true
	})
	e.qlock.Unlock()

	e.nReqFailed.Add(uint64(failed + len(recvs)))
	for _, s := range idle {
		s.req.CompleteErr(ErrPeerDead)
	}
	for _, r := range recvs {
		r.req.CompleteErr(ErrPeerDead)
	}
	for _, ev := range orphans {
		ev.release()
	}
}

// MarkPeerAlive clears a rank's dead flag — the respawn path: a launcher
// that restarted the rank's process (nmrun -respawn) re-announces it once
// the new incarnation registered. Requests failed by the death sweep stay
// failed; new posts to the rank proceed, and since MarkPeerDead left the
// rank's state zeroed, both streams restart at sequence 1 against the
// fresh engine on the other side.
func (e *Engine) MarkPeerAlive(rank int) {
	if !e.inWorld(rank) {
		return
	}
	if p := &e.peers[rank]; p.dead.CompareAndSwap(true, false) {
		e.deadCount.Add(-1)
		// Restart the silence clock: the new incarnation owes nothing yet.
		p.lastHeard.Store(time.Now().UnixNano())
	}
}

// failSend refuses a post toward a dead rank: the returned request is
// already completed with ErrPeerDead, so every Wait path returns
// immediately and Release works as usual.
func (e *Engine) failSend(dst, tag int, data []byte) *SendReq {
	e.qlock.Lock()
	r := e.takeSendLocked()
	e.nSends++
	e.qlock.Unlock()
	r.dst, r.tag, r.data = dst, tag, data
	e.nReqFailed.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRegister, -1, tag, len(data), "isend dst=%d refused: peer dead", dst)
	}
	r.req.CompleteErr(ErrPeerDead)
	return r
}

// failRecv refuses a receive naming a dead rank, mirroring failSend.
func (e *Engine) failRecv(src, tag int, buf []byte) *RecvReq {
	e.qlock.Lock()
	r := e.takeRecvLocked()
	e.nRecvs++
	e.qlock.Unlock()
	r.src, r.tag, r.buf = src, tag, buf
	r.from = src
	e.nReqFailed.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRegister, -1, tag, len(buf), "irecv src=%d refused: peer dead", src)
	}
	r.req.CompleteErr(ErrPeerDead)
	return r
}
