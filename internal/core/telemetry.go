package core

import (
	"fmt"
	"time"

	"pioman/internal/telemetry"
)

// engineTelemetry holds the engine's registered metric handles. It exists
// only when Config.Metrics was set; every hot-path recording site guards
// on the one nil check of e.tel, so unmetered engines pay a predictable
// branch and nothing else.
//
// What gets a clock and what doesn't is the load-bearing decision here
// (the acceptance bar is a 64B shm message rate within 3% of unmetered):
//
//   - per-peer counters (peer.sent, peer.recvd) are bare atomic adds —
//     always cheap;
//   - progress-loop dwell calls time.Now only on sampled passes
//     (1 in dwellSampleMask+1), so a spin-polling core is not serialized
//     on the clock;
//   - rendezvous handshake latency and blocking parks stamp the clock
//     unconditionally, because those events are inherently rare and
//     already cost microseconds.
type engineTelemetry struct {
	// dwell is the duration distribution of sampled progress passes —
	// the "how long does one turn of the crank take" signal behind the
	// paper's reactivity argument.
	dwell *telemetry.Histogram
	// park is the time BlockingWait actually spent parked in the rail's
	// blocking receive before a packet (or timeout) woke it.
	park *telemetry.Histogram
	// rtsToCts is the sender-observed rendezvous handshake latency: RTS
	// posted to CTS handled. It is the reactivity metric of §2.3 — a slow
	// peer progress loop shows up here before it shows up in bandwidth.
	rtsToCts *telemetry.Histogram
	// ctsToData is the time from CTS handled to the DATA transfer fully
	// posted on the sender — the submission half of a rendezvous.
	ctsToData *telemetry.Histogram
}

// dwellSampleMask samples progress-pass dwell 1 in 64: frequent enough
// that a second of polling yields thousands of samples, sparse enough
// that the two time.Now calls never show on the message-rate bench.
const dwellSampleMask = 63

// newEngineTelemetry registers the engine's counters and histograms with
// reg under "node<rank>.engine.*" and per-peer names under
// "node<rank>.peer.<rank>.*", one family per rank of the world.
func newEngineTelemetry(reg *telemetry.Registry, e *Engine) *engineTelemetry {
	p := fmt.Sprintf("node%d.engine", e.node)
	reg.RegisterCounter(p+".sends_posted", "send requests posted", func() uint64 {
		sends, _ := e.postCounts()
		return sends
	})
	reg.RegisterCounter(p+".recvs_posted", "receive requests posted", func() uint64 {
		_, recvs := e.postCounts()
		return recvs
	})
	reg.RegisterCounter(p+".eager_submits", "eager messages submitted", e.nEager.Load)
	reg.RegisterCounter(p+".offload_submits", "submissions executed off the posting thread", e.nOffload.Load)
	reg.RegisterCounter(p+".rdv_started", "rendezvous handshakes started", e.nRdv.Load)
	reg.RegisterCounter(p+".unexpected", "messages buffered as unexpected", e.nUnexp.Load)
	reg.RegisterCounter(p+".aggregated", "messages sent inside aggregated trains", e.nAggr.Load)
	reg.RegisterCounter(p+".progress_passes", "progress passes executed", e.nProgress.Load)
	reg.RegisterCounter(p+".rdv_replays", "unacked rendezvous RTS/data re-posted by the replay timer", e.nReplays.Load)
	reg.RegisterCounter(p+".rdv_acked", "rendezvous sends completed by a receiver data-ack", e.nAcks.Load)
	reg.RegisterCounter(p+".rail_readmits", "probation rails readmitted to the stripe set", e.nReadmits.Load)
	reg.RegisterCounter(p+".peer_dead", "peer ranks declared dead (deadline detection or cluster verdict)", e.nPeerDead.Load)
	reg.RegisterCounter(p+".reqs_failed", "requests completed with ErrPeerDead", e.nReqFailed.Load)
	reg.RegisterCounter(p+".frames_dropped", "inbound frames dropped, for the reasons core.dropReason lists: source outside the world, kind not consumed, malformed train, malformed RTS, negative DATA offset, dead source, consumed sequence, DATA past length", e.nDropped.Load)
	t := &engineTelemetry{
		dwell:     reg.Histogram(p+".progress_dwell_ns", "sampled progress-pass duration (ns, 1-in-64 passes)"),
		park:      reg.Histogram(p+".park_ns", "time parked in the blocking-receive fallback (ns)"),
		rtsToCts:  reg.Histogram(p+".rdv_rts_to_cts_ns", "rendezvous RTS-posted to CTS-handled latency (ns)"),
		ctsToData: reg.Histogram(p+".rdv_cts_to_data_ns", "rendezvous CTS-handled to DATA-posted latency (ns)"),
	}
	for k := range e.peers {
		pp := fmt.Sprintf("node%d.peer.%d", e.node, k)
		reg.RegisterCounter(pp+".sent_msgs", "messages posted toward this peer", e.peers[k].sent.Load)
		reg.RegisterCounter(pp+".recv_frames", "protocol frames handled from this peer", e.peers[k].recvd.Load)
	}
	return t
}

// registerRails registers every rail driver under
// "node<rank>.rail.<name>.*". Two rails sharing a name (hand-rolled
// bonded configs) get an index suffix on the later one instead of the
// duplicate-name panic the registry would otherwise raise.
func (e *Engine) registerRails(reg *telemetry.Registry) {
	seen := make(map[string]bool, len(e.rails))
	for i, r := range e.rails {
		name := r.Name()
		if seen[name] {
			name = fmt.Sprintf("%s_%d", name, i)
		}
		seen[name] = true
		prefix := fmt.Sprintf("node%d.rail.%s", e.node, name)
		r.RegisterMetrics(reg, prefix)
		// The lifecycle gauge is engine-owned (the driver has no notion
		// of probation): 0 = active, 1 = probation.
		h := &e.health[i]
		reg.RegisterGauge(prefix+".health_state", "rail lifecycle state (0 active, 1 probation)", func() uint64 {
			if h.active() {
				return 0
			}
			return 1
		})
	}
}

// dwellStart reports whether this pass (the n-th) is dwell-sampled and,
// when it is, the stamp to subtract at the end of the pass.
func (t *engineTelemetry) dwellStart(n uint64) (time.Time, bool) {
	if t == nil || n&dwellSampleMask != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}
