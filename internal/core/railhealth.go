package core

import (
	"sync/atomic"
	"time"

	"pioman/internal/nic"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// Rail lifecycle — probation, health probes, live re-admission — plus
// the online stripe-weight retune. A rail that fails a span submission
// is not abandoned for the life of the run (the pre-self-healing
// behavior): it moves to probation, where the maintenance tick probes it
// with a cheap ping frame at a backoff-spaced cadence; when the echo of a
// probe sent after the demotion comes back with quiet loss counters the
// rail rejoins the stripe set live.
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
	// weightPeriod spaces online stripe-weight measurements; 50ms
	// windows are long enough for a goodput estimate to mean something.
	weightPeriod = 50 * time.Millisecond
	// weightAlpha is the EWMA blend: w' = (1-α)·w + α·measured.
	weightAlpha = 0.4
	// weightDeadband suppresses SetStripeWeight churn: retunes apply
	// only when the new weight moved more than 10% relative.
	weightDeadband = 0.10
	// rttAlpha is the EWMA blend for a rail's probe round-trip time.
	// RTT swings on a ping cadence are noisier than goodput windows, so
	// it smooths harder than weightAlpha.
	rttAlpha = 0.3
)

// railHealth is one rail's lifecycle state, held in the engine's health
// slice parallel to rails. Fields crossed by the polling path
// (demotion from stripeData, re-admission from handlePong) and the
// maintenance tick are atomics; the EWMA bookkeeping is touched only
// by the maintenance scan's owner (maybeMaint's CAS winner).
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
	nextRTT   atomic.Int64  // unix nanos of the next RTT probe (active rails)
	rttNanos  atomic.Int64  // EWMA probe round-trip time, 0 = not yet measured

	// EWMA bookkeeping, owned by the maintenance scan.
	lastBytes uint64
	lastSent  uint64
	lastLost  uint64
	lastAt    int64
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
	h.errsBase.Store(r.Stats().SendErrs + r.LostFrames())
	e.probationCount.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindRailProbation, -1, -1, 0, "rail %s -> probation", r.Name())
	}
}

// railMaint runs the rail-lifecycle half of the maintenance tick:
// asynchronous-loss demotions, due probation probes, then the online
// weight retune; caller owns the maintenance scan.
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
		cur := r.Stats().SendErrs + r.LostFrames()
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
			// Seq carries the send stamp: it dates the echo against the
			// demotion (handlePong) and yields an RTT sample for the
			// retune. demoteRail sets nextProbe to its demotion stamp, so
			// a probe gated on it postdates the demotion; one that raced
			// that store carries an older stamp and is merely ignored.
			h.errsBase.Store(r.Stats().SendErrs + r.LostFrames())
			r.SendPing(nic.Header{Src: e.node, Dst: dst, Tag: -1, Seq: uint64(now)})
			gap := h.probeGap.Load()
			h.nextProbe.Store(now + gap)
			if gap *= 2; gap > int64(probeGapMax) {
				gap = int64(probeGapMax)
			}
			h.probeGap.Store(gap)
		}
	}
	if e.cfg.AutoStripeWeights {
		e.rttProbes(now)
		e.retuneWeights(now)
	}
}

// rttProbes sends a timestamped health ping on each active striping rail
// once per weightPeriod; caller owns the maintenance scan. The pong
// echoes the stamp (handlePong) and the EWMA round-trip time feeds the
// latency penalty in retuneWeights — queueing delay that a goodput
// window cannot see. Probes go to a fixed representative peer (rank 0,
// or 1 when we are rank 0), skipping it once it is declared dead.
func (e *Engine) rttProbes(now int64) {
	dst := 0
	if e.node == 0 {
		dst = 1
	}
	if e.PeerDead(dst) {
		return
	}
	for i, r := range e.rails {
		h := &e.health[i]
		if !h.active() || r.StripeWeight() <= 0 {
			continue
		}
		if now < h.nextRTT.Load() {
			continue
		}
		h.nextRTT.Store(now + int64(weightPeriod))
		r.SendPing(nic.Header{Src: e.node, Dst: dst, Tag: -1, Seq: uint64(now)})
	}
}

// handlePing answers a peer's rail health probe on the rail it arrived
// on — the round trip is the health evidence, so the reply must not be
// rerouted.
func (e *Engine) handlePing(rail *nic.Driver, p *wire.Packet) {
	rail.SendPong(nic.Header{Src: e.node, Dst: p.Src, Tag: -1, Seq: p.Seq})
}

// handlePong judges a probation rail's probe reply: the echo of a ping
// sent after the demotion proves the rail carries frames both ways
// again, and quiet loss counters since the ping prove nothing else died
// meanwhile — together that readmits the rail to the stripe set, live.
// The evidence must be causal: the echo of a ping sent before the
// demotion (an RTT probe queued behind striped DATA, say) crossed the
// rail while it still worked and says nothing about it now. A stale pong
// or one with moved counters leaves the rail on probation; the next
// probe rebaselines and tries again.
func (e *Engine) handlePong(rail *nic.Driver, p *wire.Packet) {
	i := e.railIndex(rail)
	if i < 0 {
		return
	}
	h := &e.health[i]
	// Every ping carries its send stamp in Seq; the echo is an RTT
	// sample for the retune's latency penalty regardless of whether the
	// rail is on probation.
	if p.Seq != 0 {
		if rtt := time.Now().UnixNano() - int64(p.Seq); rtt > 0 {
			prev := h.rttNanos.Load()
			if prev == 0 {
				h.rttNanos.Store(rtt)
			} else {
				h.rttNanos.Store(int64((1-rttAlpha)*float64(prev) + rttAlpha*float64(rtt)))
			}
		}
	}
	demoted := h.demotedAt.Load()
	if demoted == 0 || int64(p.Seq) <= demoted {
		return
	}
	cur := rail.Stats().SendErrs + rail.LostFrames()
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

// retuneWeights folds each rail's measured goodput into its live stripe
// weight as an EWMA; caller owns the maintenance scan. Goodput is bytes
// moved per microsecond over the window, discounted by the window's loss
// ratio and by the rail's probe RTT relative to the best rail's, so a
// degraded-but-alive rail (delivering, but slowly, lossily, or behind a
// deep queue) sheds stripe share continuously instead of stalling tails
// at full share. The RTT penalty is what catches latency a goodput
// window cannot see: a rail that still moves bytes but does so k× slower
// round-trip gets its measured goodput divided by k.
// Idle rails and rails whose weight is zero (deliberately out of the
// stripe set) are left alone.
func (e *Engine) retuneWeights(now int64) {
	// The penalty baseline is the fastest active striping rail; with one
	// rail (or no RTT samples yet) the penalty is a no-op.
	minRTT := int64(0)
	for i, r := range e.rails {
		h := &e.health[i]
		if !h.active() || r.StripeWeight() <= 0 {
			continue
		}
		if rtt := h.rttNanos.Load(); rtt > 0 && (minRTT == 0 || rtt < minRTT) {
			minRTT = rtt
		}
	}
	for i, r := range e.rails {
		h := &e.health[i]
		if !h.active() {
			// A probation rail carries no stripe traffic; freeze its weight
			// so it rejoins with the share it held when it failed instead
			// of one decayed by idle windows.
			continue
		}
		if now-h.lastAt < int64(weightPeriod) {
			continue
		}
		st := r.Stats()
		bytes := st.DataBytes + st.EagerBytes
		sent := st.DataSent + st.EagerSent
		lost := st.SendErrs + r.LostFrames()
		dBytes, dSent, dLost := bytes-h.lastBytes, sent-h.lastSent, lost-h.lastLost
		dt := now - h.lastAt
		h.lastBytes, h.lastSent, h.lastLost, h.lastAt = bytes, sent, lost, now
		if dt > 4*int64(weightPeriod) {
			// Stale window — the rail just came off probation (baselines
			// frozen) or the engine idled. The deltas span the gap, so a
			// goodput computed from them is garbage; rebaseline and measure
			// from the next window.
			continue
		}
		if dSent == 0 || dBytes == 0 {
			continue
		}
		w := r.StripeWeight()
		if w <= 0 {
			continue
		}
		lossRatio := float64(dLost) / float64(dSent)
		if lossRatio > 1 {
			lossRatio = 1
		}
		measured := float64(dBytes) / (float64(dt) / 1e3) * (1 - lossRatio)
		if rtt := h.rttNanos.Load(); rtt > 0 && minRTT > 0 && rtt > minRTT {
			measured *= float64(minRTT) / float64(rtt)
		}
		next := (1-weightAlpha)*w + weightAlpha*measured
		if diff := next - w; diff < w*weightDeadband && diff > -w*weightDeadband {
			continue
		}
		r.SetStripeWeight(next)
		e.nRetunes.Add(1)
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindData, -1, -1, 0, "rail %s weight %.0f -> %.0f", r.Name(), w, next)
		}
	}
}
