package main

// The table renderer: turns one interval's metric deltas (telemetry.Delta
// over two /metrics.json snapshots) into the rail/peer/engine/cluster
// tables the terminal shows. Pure — it only reads the delta map — so the
// test feeds it canned snapshots and asserts on the rendered text.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pioman/internal/telemetry"
)

// railRow accumulates one node-rail's interval deltas, plus the two
// lifecycle gauges (carried at their live value, not as deltas): the
// engine's health state and the rail's current striping weight.
type railRow struct {
	sent, recv, lost, errs uint64
	weight                 float64 // from the stripe_weight_milli gauge
	health                 uint64  // 0 active, 1 probation
	occ                    *telemetry.HistogramValue
}

// engineRow accumulates one node-engine's interval deltas.
type engineRow struct {
	sends, recvs, rdv     uint64
	dwell, park, rtsToCts *telemetry.HistogramValue
}

// peerRow is one directed node→peer edge's interval deltas.
type peerRow struct {
	sent, recv uint64
}

// clusterRow is one node's cluster-membership view: epoch and alive are
// live gauge values, deaths the interval's new death verdicts.
type clusterRow struct {
	epoch, alive, deaths uint64
}

// renderTop renders the rail, peer, engine and cluster tables for one
// interval's deltas. Counter deltas divide by elapsed into rates;
// histogram deltas report the interval's p50/p99.
func renderTop(delta map[string]telemetry.MetricValue, elapsed time.Duration) string {
	rails := map[string]*railRow{}
	engines := map[string]*engineRow{}
	peers := map[string]*peerRow{}
	clusters := map[string]*clusterRow{}
	var bufHits, bufMisses uint64
	for name, m := range delta {
		parts := strings.Split(name, ".")
		switch {
		case len(parts) == 4 && strings.HasPrefix(parts[0], "node") && parts[1] == "rail":
			key := parts[0] + "." + parts[2]
			r := rails[key]
			if r == nil {
				r = &railRow{}
				rails[key] = r
			}
			switch parts[3] {
			case "eager_sent", "data_sent":
				r.sent += m.Value
			case "recvs":
				r.recv += m.Value
			case "lost_frames":
				r.lost += m.Value
			case "send_errs":
				r.errs += m.Value
			case "stripe_weight_milli":
				r.weight = float64(m.Value) / 1000
			case "health_state":
				r.health = m.Value
			case "batch_occupancy":
				r.occ = m.Hist
			}
		case len(parts) == 3 && strings.HasPrefix(parts[0], "node") && parts[1] == "engine":
			e := engines[parts[0]]
			if e == nil {
				e = &engineRow{}
				engines[parts[0]] = e
			}
			switch parts[2] {
			case "sends_posted":
				e.sends = m.Value
			case "recvs_posted":
				e.recvs = m.Value
			case "rdv_started":
				e.rdv = m.Value
			case "progress_dwell_ns":
				e.dwell = m.Hist
			case "park_ns":
				e.park = m.Hist
			case "rdv_rts_to_cts_ns":
				e.rtsToCts = m.Hist
			}
		case len(parts) == 3 && strings.HasPrefix(parts[0], "node") && parts[1] == "cluster":
			c := clusters[parts[0]]
			if c == nil {
				c = &clusterRow{}
				clusters[parts[0]] = c
			}
			switch parts[2] {
			case "epoch":
				c.epoch = m.Value
			case "alive":
				c.alive = m.Value
			case "deaths":
				c.deaths = m.Value
			}
		case len(parts) == 4 && strings.HasPrefix(parts[0], "node") && parts[1] == "peer":
			key := parts[0] + " -> " + parts[2]
			p := peers[key]
			if p == nil {
				p = &peerRow{}
				peers[key] = p
			}
			switch parts[3] {
			case "sent_msgs":
				p.sent = m.Value
			case "recv_frames":
				p.recv = m.Value
			}
		case name == "process.bufpool.hits":
			bufHits = m.Value
		case name == "process.bufpool.misses":
			bufMisses = m.Value
		}
	}

	sec := elapsed.Seconds()
	rate := func(v uint64) float64 { return float64(v) / sec }
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %8s %8s %6s %6s %7s %6s\n",
		"RAIL", "sent/s", "recv/s", "occ p50", "occ p99", "lost", "errs", "weight", "state")
	for _, key := range sortedKeys(rails) {
		r := rails[key]
		state := "up"
		if r.health != 0 {
			state = "PROB"
		}
		fmt.Fprintf(&b, "%-16s %10.0f %10.0f %8d %8d %6d %6d %7.4g %6s\n",
			key, rate(r.sent), rate(r.recv), r.occ.Quantile(0.5), r.occ.Quantile(0.99), r.lost, r.errs, r.weight, state)
	}
	if len(peers) > 0 {
		fmt.Fprintf(&b, "\n%-16s %12s %14s\n", "PEER", "sent msg/s", "recv frames/s")
		for _, key := range sortedKeys(peers) {
			p := peers[key]
			fmt.Fprintf(&b, "%-16s %12.0f %14.0f\n", key, rate(p.sent), rate(p.recv))
		}
	}
	if len(engines) > 0 {
		fmt.Fprintf(&b, "\n%-8s %9s %9s %7s %11s %11s %11s %13s\n",
			"ENGINE", "sends/s", "recvs/s", "rdv/s", "dwell p50", "dwell p99", "park p50", "rts->cts p50")
		for _, key := range sortedKeys(engines) {
			e := engines[key]
			fmt.Fprintf(&b, "%-8s %9.0f %9.0f %7.0f %11s %11s %11s %13s\n",
				key, rate(e.sends), rate(e.recvs), rate(e.rdv),
				fmtNs(e.dwell.Quantile(0.5)), fmtNs(e.dwell.Quantile(0.99)),
				fmtNs(e.park.Quantile(0.5)), fmtNs(e.rtsToCts.Quantile(0.5)))
		}
	}
	if len(clusters) > 0 {
		fmt.Fprintf(&b, "\n%-8s %7s %7s %10s\n", "CLUSTER", "epoch", "alive", "deaths/int")
		for _, key := range sortedKeys(clusters) {
			c := clusters[key]
			fmt.Fprintf(&b, "%-8s %7d %7d %10d\n", key, c.epoch, c.alive, c.deaths)
		}
	}
	if bufHits+bufMisses > 0 {
		fmt.Fprintf(&b, "\nbufpool: %.0f gets/s, %.1f%% pooled\n",
			rate(bufHits+bufMisses), 100*float64(bufHits)/float64(bufHits+bufMisses))
	}
	return b.String()
}

// fmtNs renders a nanosecond quantile as a duration, "-" when the
// histogram saw nothing this interval.
func fmtNs(ns uint64) string {
	if ns == 0 {
		return "-"
	}
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
