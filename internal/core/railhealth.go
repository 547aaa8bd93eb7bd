package core

import (
	"sync/atomic"
	"time"

	"pioman/internal/nic"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// Rail lifecycle — probation, health probes, live re-admission. A rail's
// stripe weight is what its nic.Params declares or what a caller sets
// with Driver.SetStripeWeight; nothing here changes it. A rail that
// fails a span submission is not abandoned for the life of the run (the
// pre-self-healing behavior): it moves to probation, where the
// maintenance tick probes it with a cheap ping frame at a backoff-spaced
// cadence; when the echo of a probe sent after the demotion comes back
// with quiet loss counters the rail rejoins the stripe set live.
// Probation state machine per rail (docs/FABRIC.md):
//
//	active --span submission failed--> probation
//	probation --post-demotion ping answered, counters quiet--> active
//	probation --probe unanswered--> probation (gap doubles, 50ms → 1s)

const (
	// probeGapInit/probeGapMax bound the probe cadence of a probation
	// rail: eager enough to readmit within ~100ms of recovery, backed
	// off enough that a rail dead for minutes costs one frame a second.
	probeGapInit = 50 * time.Millisecond
	probeGapMax  = time.Second
)

// railHealth is one rail's lifecycle state, held in the engine's health
// slice parallel to rails. Every field is crossed by the polling path
// (demotion from stripeData, re-admission from handlePong) and the
// maintenance tick, so all are atomics.
//
// demotedAt is the whole lifecycle state in one word — zero while the
// rail is active, the demotion's unix-nanos stamp while it is on
// probation — so a rail is never visibly on probation without the stamp
// that dates the evidence handlePong may accept, and a readmission
// (CAS stamp → 0) can only end the demotion it judged.
type railHealth struct {
	demotedAt atomic.Int64  // 0 = active; else unix nanos of the demotion
	errsBase  atomic.Uint64 // SendErrs+LostFrames at the last probe
	errsSeen  atomic.Uint64 // SendErrs+LostFrames at the last maint scan
	probeGap  atomic.Int64  // current probe spacing, nanos
	nextProbe atomic.Int64  // unix nanos of the next due probe
	probeDst  atomic.Int32  // peer the probe pings (the failed span's dst)
}

// active reports whether the rail is in the stripe set (not on probation).
func (h *railHealth) active() bool { return h.demotedAt.Load() == 0 }

// railIndex maps a rail driver back to its engine slot (rail counts are
// single digits; the scan is cheaper than a map).
func (e *Engine) railIndex(r *nic.Driver) int {
	for i, d := range e.rails {
		if d == r {
			return i
		}
	}
	return -1
}

// demoteRail moves a rail whose span submission failed to probation:
// dataRails stops striping onto it and the maintenance tick starts
// health-probing it toward dst. Idempotent under races — exactly one
// caller wins the state transition.
func (e *Engine) demoteRail(r *nic.Driver, dst int) {
	i := e.railIndex(r)
	if i < 0 {
		return
	}
	h := &e.health[i]
	now := time.Now().UnixNano()
	if !h.demotedAt.CompareAndSwap(0, now) {
		return
	}
	h.probeDst.Store(int32(dst))
	h.probeGap.Store(int64(probeGapInit))
	h.nextProbe.Store(now)
	h.errsBase.Store(r.Losses())
	e.probationCount.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRailProbation, -1, -1, 0, "rail %s -> probation", r.Name())
	}
}

// railMaint runs the rail-lifecycle half of the maintenance tick:
// asynchronous-loss demotions, then due probation probes; caller owns
// the maintenance scan.
//
// The demotion scan catches what submission-time detection cannot: a
// stream that dies moments *after* its span was accepted surfaces the
// loss asynchronously (docs/FABRIC.md on LostFrames vs SendErrs), so
// sendSpan's counters-quiet check passed. The tick sees the counters
// move between scans and moves the rail to probation then — the
// acked-replay timer re-stripes the lost transfer around it.
func (e *Engine) railMaint(now int64) {
	for i, r := range e.rails {
		h := &e.health[i]
		if !h.active() {
			continue
		}
		cur := r.Losses()
		if cur > h.errsSeen.Load() {
			h.errsSeen.Store(cur)
			// No failed destination in hand; probe toward any peer the
			// rail serves (rank 0, or 1 when we are rank 0).
			dst := 0
			if e.node == 0 {
				dst = 1
			}
			e.demoteRail(r, dst)
		}
	}
	if e.probationCount.Load() > 0 {
		for i := range e.rails {
			h := &e.health[i]
			if h.active() || now < h.nextProbe.Load() {
				continue
			}
			r := e.rails[i]
			dst := int(h.probeDst.Load())
			if e.PeerDead(dst) {
				// No point probing a corpse — and a blocking transport
				// (tcpfab's redial window) would stall the whole
				// maintenance pass dialing it.
				continue
			}
			// Rebaseline before each probe: a readmission requires the
			// loss counters quiet across the ping round trip itself. The
			// Seq carries the send stamp, which dates the echo against
			// the demotion (handlePong). demoteRail sets nextProbe to its
			// demotion stamp, so a probe gated on it postdates the
			// demotion; one that raced that store carries an older stamp
			// and is merely ignored.
			h.errsBase.Store(r.Losses())
			r.SendControl(wire.PktPing, nic.Header{Src: e.node, Dst: dst, Tag: -1, Seq: uint64(now)})
			gap := h.probeGap.Load()
			h.nextProbe.Store(now + gap)
			if gap *= 2; gap > int64(probeGapMax) {
				gap = int64(probeGapMax)
			}
			h.probeGap.Store(gap)
		}
	}
}

// handlePing answers a peer's rail health probe on the rail it arrived
// on — the round trip is the health evidence, so the reply must not be
// rerouted.
func (e *Engine) handlePing(rail *nic.Driver, p *wire.Packet) {
	rail.SendControl(wire.PktPong, nic.Header{Src: e.node, Dst: p.Src, Tag: -1, Seq: p.Seq})
}

// handlePong judges a probation rail's probe reply: the echo of a ping
// sent after the demotion proves the rail carries frames both ways
// again, and quiet loss counters since the ping prove nothing else died
// meanwhile — together that readmits the rail to the stripe set, live.
// The evidence must be causal: the echo of a probe sent before the
// current demotion (a probation probe from an earlier demotion, answered
// late) crossed the rail while it still worked and says nothing about it
// now. A stale pong or one with moved counters leaves the rail on
// probation; the next probe rebaselines and tries again.
func (e *Engine) handlePong(rail *nic.Driver, p *wire.Packet) {
	i := e.railIndex(rail)
	if i < 0 {
		return
	}
	h := &e.health[i]
	demoted := h.demotedAt.Load()
	if demoted == 0 || int64(p.Seq) <= demoted {
		return
	}
	cur := rail.Losses()
	if cur != h.errsBase.Load() {
		return
	}
	if !h.demotedAt.CompareAndSwap(demoted, 0) {
		return
	}
	// Losses accrued while on probation (replay attempts, unanswered
	// pings) are spent history, not fresh evidence: rebase the demotion
	// scan so they cannot re-demote the rail on the next tick.
	h.errsSeen.Store(cur)
	h.probeGap.Store(int64(probeGapInit))
	e.probationCount.Add(-1)
	e.nReadmits.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRailReadmit, -1, -1, 0, "rail %s readmitted", rail.Name())
	}
}
