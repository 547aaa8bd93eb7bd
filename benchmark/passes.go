package main

import (
	"fmt"
	"runtime"
	"time"

	"pioman/internal/stats"
	"pioman/internal/telemetry"
)

// metricValue is one reported number. Where Value is a median, Samples
// is how many values it was taken over and Spread their inter-quartile
// range as a share of it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// passResult is one pass (untraced or traced) of one workload.
type passResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	tracks []spanTrack
}

func (r *passResult) set(decls []metricDecl, name string, v metricValue) {
	for _, d := range decls {
		if d.Name == name {
			v.Unit = d.Unit
			r.Metrics[name] = v
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// add counts w's operations; w is nil when its world never opened.
func (r *passResult) add(w *window) {
	if w != nil {
		r.Attempted += w.attempted
		r.Failed += w.failed
	}
}

// setupRepeats is how many worlds the untraced pass sets up only to time
// them and tear them down, before the ones it measures on: setup_s is the
// median over them all, as one sample of under a millisecond is mostly
// noise.
const setupRepeats = 40

// runUntraced measures wl's end-to-end metrics: tracing and telemetry off.
func runUntraced(wl *workload, seed int64, win time.Duration) (*passResult, error) {
	res := &passResult{Workload: wl.name, Metrics: map[string]metricValue{}}
	var setups []float64
	baseline := runtime.NumGoroutine()
	for i := 0; i < setupRepeats; i++ {
		w, err := openWorld(wl.backend, nil)
		if err != nil {
			return res, err
		}
		setups = append(setups, w.setup.Seconds())
		if err := w.close(baseline); err != nil {
			return res, err
		}
	}
	var st sliceStats
	perWorld := win / worlds
	for k := 0; k < worlds; k++ {
		w, err := measure(wl, seed, warmUp(perWorld), perWorld, false)
		res.add(w)
		if err != nil {
			return res, err
		}
		setups = append(setups, w.setup.Seconds())
		part := w.cut()
		st.iterP50us = append(st.iterP50us, part.iterP50us...)
		st.msgsPerS = append(st.msgsPerS, part.msgsPerS...)
		st.goodputMBps = append(st.goodputMBps, part.goodputMBps...)
	}
	if len(st.iterP50us) == 0 {
		return res, fmt.Errorf("%s: no timed iteration ended inside the window", wl.name)
	}
	res.set(endToEnd, "setup_s", summarize(setups))
	res.set(endToEnd, "iter_p50_us", summarize(st.iterP50us))
	res.set(endToEnd, "msgs_per_s", summarize(st.msgsPerS))
	res.set(endToEnd, "goodput_MBps", summarize(st.goodputMBps))
	res.Correct = true
	return res, nil
}

// runTraced measures wl's per-layer metrics: a short untraced reference
// window (for the tracing overhead), the traced window with spans and
// the telemetry registry attached, then the layer ladder on wl's backend.
func runTraced(wl *workload, seed int64, win time.Duration) (*passResult, error) {
	res := &passResult{Workload: wl.name, Traced: true, Metrics: map[string]metricValue{}}
	put := func(name string, v float64) { res.set(perLayer, name, metricValue{Value: v}) }

	ref, err := measure(wl, seed, warmUp(win/4), win/4, false)
	res.add(ref)
	if err != nil {
		return res, err
	}
	w, err := measure(wl, seed, warmUp(win/2), win/2, true)
	res.add(w)
	if err != nil {
		return res, err
	}
	st := w.cut()
	if st.durs.N() == 0 || st.msgs == 0 {
		return res, fmt.Errorf("%s: no timed iteration ended inside the traced window", wl.name)
	}
	ops := float64(st.msgs)

	// mpi: spans.
	byKind := [numSpanKinds]*stats.Sample{}
	for k := range byKind {
		byKind[k] = stats.NewSample(0)
	}
	for rank, tr := range w.tracers {
		for _, s := range tr.spans {
			if s.start >= int64(w.run.warm) {
				byKind[s.kind].Add(time.Duration(s.dur))
			}
		}
		res.tracks = append(res.tracks, spanTrack{
			workload: wl.name, rank: rank, offset: int64(w.run.start.Sub(processStart)), spans: tr.spans,
		})
	}
	put("mpi.isend_call_ns_p50", float64(byKind[spIsend].Median()))
	put("mpi.irecv_call_ns_p50", float64(byKind[spIrecv].Median()))
	put("mpi.wait_send_ns_p50", float64(byKind[spWaitSend].Median()))
	put("mpi.wait_recv_ns_p50", float64(byKind[spWaitRecv].Median()))
	put("mpi.iter_p99_us", stats.US(st.durs.Percentile(99)))
	put("mpi.iter_p999_us", stats.US(st.durs.Percentile(99.9)))
	put("mpi.iter_samples", float64(st.durs.N()))

	// piom: how much of the compute the engine hid, (T0 + c - Tc) / min(T0, c).
	if c := wl.compute; c > 0 && st.untimed.N() > 0 {
		t0, tc := st.untimed.Median(), st.durs.Median()
		put("piom.overlap_ratio", float64(t0+c-tc)/float64(min(t0, c)))
	} else {
		put("piom.overlap_ratio", 0)
	}

	// core, piom, nic, transports: the program's own registry over the window.
	d := telemetry.Delta(w.before.reg, w.after.reg)
	sum := func(suffix string) float64 {
		return float64(d["node0."+suffix].Value + d["node1."+suffix].Value)
	}
	histMean := func(d map[string]telemetry.MetricValue, suffix string) float64 {
		var h telemetry.HistogramValue
		for _, node := range []string{"node0.", "node1."} {
			if v := d[node+suffix].Hist; v != nil {
				h.Sum += v.Sum
				h.Count += v.Count
			}
		}
		return h.Mean()
	}
	rail := "rail." + w.rail + "."
	put("core.progress_passes_per_op", sum("engine.progress_passes")/ops)
	put("core.progress_dwell_ns_mean", histMean(d, "engine.progress_dwell_ns"))
	put("core.park_ns_mean", histMean(d, "engine.park_ns"))
	put("core.offload_submits_share", share(sum("engine.offload_submits"), sum("engine.sends_posted")))
	put("core.unexpected_share", share(sum("engine.unexpected"), sum("engine.recvs_posted")))
	put("core.rdv_replays", sum("engine.rdv_replays"))
	put("core.reqs_failed", sum("engine.reqs_failed"))
	withProbe := telemetry.Delta(w.before.reg, w.rdv)
	put("core.rdv_rts_to_cts_ns_mean", histMean(withProbe, "engine.rdv_rts_to_cts_ns"))
	put("core.rdv_cts_to_data_ns_mean", histMean(withProbe, "engine.rdv_cts_to_data_ns"))
	put("piom.polls_per_op", sum("piom.polls")/ops)
	put("piom.worked_share", share(sum("piom.worked"), sum("piom.polls")))
	put("piom.blocking_wakeups_per_op", sum("piom.blocking_wakeups")/ops)
	put("nic.batch_occupancy", share(sum(rail+"polled_frames"), sum(rail+"poll_batches")))
	put("nic.send_errs", sum(rail+"send_errs"))
	put("nic.lost_frames", sum(rail+"lost_frames"))
	put("tcpfab.frames_per_flush", share(sum(rail+"coalesced_frames"), sum(rail+"flush_syscalls")))
	put("tcpfab.flush_syscalls_per_op", sum(rail+"flush_syscalls")/ops)
	put("udpfab.retransmits_per_kmsg", sum(rail+"retransmits")/ops*1000)
	put("udpfab.acks_sent_per_msg", sum(rail+"acks_sent")/ops)
	put("udpfab.window_stalls", sum(rail+"window_stalls"))
	put("udpfab.dup_dropped", sum(rail+"dup_dropped"))
	hits := float64(w.after.pool.Hits - w.before.pool.Hits)
	put("fabric.bufpool_hit_share", share(hits, hits+float64(w.after.pool.Misses-w.before.pool.Misses)))

	// proc
	put("proc.allocs_per_op", float64(w.after.mallocs-w.before.mallocs)/ops)
	put("proc.cpu_us_per_op", stats.US(w.after.cpu-w.before.cpu)/ops)
	put("proc.goroutines", float64(w.after.goroutines))
	put("proc.rss_peak_MB", float64(w.after.rssPeakKB)/1024)
	untraced, traced := summarize(ref.cut().msgsPerS).Value, summarize(st.msgsPerS).Value
	put("proc.trace_overhead_share", share(untraced-traced, untraced))

	rungs, err := ladder(wl.backend, seed, clamp(win/10, 20*time.Millisecond, 400*time.Millisecond))
	if err != nil {
		return res, err
	}
	for name, v := range rungs {
		put(name, v)
	}
	res.Correct = true
	return res, nil
}

// share is part/whole, 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func clamp(d, lo, hi time.Duration) time.Duration {
	return max(lo, min(d, hi))
}

// warmUp is how long a world runs before its window opens: a quarter of
// the window, at most 500 ms. The 256 KiB workloads need that long; with
// 250 ms their first slice still read a quarter low.
func warmUp(win time.Duration) time.Duration {
	return min(win/4, 500*time.Millisecond)
}
