package main

import (
	"fmt"
	"strings"
	"time"
)

// metricDecl declares one metric: BENCHMARK.json carries exactly these
// fields, and selfcheck_test.go holds the two in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a caller of the mpi layer sees. Every workload
// emits all four, measured with tracing and telemetry off. The bounds are
// the widest BENCHMARK.json allows: on the 2-core host this was sized on,
// ten runs of the kernel-heavy workloads (stream_64B_udp, stream_256K_tcp,
// bidir_mix_tcp) spread 11-13% whenever the host had a slow few minutes,
// and a bound has to clear the benchmark's own noise.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"iter_p50_us", "us", "lower", 0.25},
	{"msgs_per_s", "1/s", "higher", 0.25},
	{"goodput_MBps", "MB/s", "higher", 0.25},
}

// perLayer are the traced pass's metrics, named <module>.<what>. They
// carry no bound: they explain a move in an end-to-end metric, they do
// not gate one. README.md says which end-to-end metric each should move.
var perLayer = []metricDecl{
	// mpi: spans around the generator's own calls.
	{Name: "mpi.isend_call_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "mpi.irecv_call_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "mpi.wait_send_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "mpi.wait_recv_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "mpi.iter_p99_us", Unit: "us", Better: "lower"},
	{Name: "mpi.iter_p999_us", Unit: "us", Better: "lower"},
	{Name: "mpi.iter_samples", Unit: "count", Better: "higher"},
	{Name: "mpi.echo_rtt_p50_ns", Unit: "ns", Better: "lower"},
	// core: ladder difference plus registry deltas over the traced window.
	{Name: "core.stack_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "core.progress_passes_per_op", Unit: "count", Better: "lower"},
	{Name: "core.progress_dwell_ns_mean", Unit: "ns", Better: "lower"},
	{Name: "core.park_ns_mean", Unit: "ns", Better: "lower"},
	{Name: "core.offload_submits_share", Unit: "share", Better: "higher"},
	{Name: "core.unexpected_share", Unit: "share", Better: "lower"},
	{Name: "core.rdv_rts_to_cts_ns_mean", Unit: "ns", Better: "lower"},
	{Name: "core.rdv_cts_to_data_ns_mean", Unit: "ns", Better: "lower"},
	{Name: "core.rdv_replays", Unit: "count", Better: "lower"},
	{Name: "core.reqs_failed", Unit: "count", Better: "lower"},
	// piom
	{Name: "piom.polls_per_op", Unit: "count", Better: "lower"},
	{Name: "piom.worked_share", Unit: "share", Better: "higher"},
	{Name: "piom.blocking_wakeups_per_op", Unit: "count", Better: "lower"},
	{Name: "piom.overlap_ratio", Unit: "ratio", Better: "higher"},
	// sync2
	{Name: "sync2.flag_wake_ns_p50", Unit: "ns", Better: "lower"},
	// nic
	{Name: "nic.echo_rtt_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "nic.self_ns", Unit: "ns", Better: "lower"},
	{Name: "nic.send_eager_call_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "nic.batch_occupancy", Unit: "count", Better: "higher"},
	{Name: "nic.send_errs", Unit: "count", Better: "lower"},
	{Name: "nic.lost_frames", Unit: "count", Better: "lower"},
	// fabric: codec in memory, then the workload's backend driven raw
	// through the Endpoint interface.
	{Name: "fabric.codec_roundtrip_ns_64B", Unit: "ns", Better: "lower"},
	{Name: "fabric.codec_roundtrip_ns_256K", Unit: "ns", Better: "lower"},
	{Name: "fabric.bufpool_hit_share", Unit: "share", Better: "higher"},
	{Name: "fabric.raw_rtt_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.raw_send_call_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "fabric.raw_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fabric.raw_MBps_256K", Unit: "MB/s", Better: "higher"},
	// transport-private counters: zero on a workload that runs on
	// another backend, because that backend carried no traffic.
	{Name: "tcpfab.frames_per_flush", Unit: "count", Better: "higher"},
	{Name: "tcpfab.flush_syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "udpfab.retransmits_per_kmsg", Unit: "count", Better: "lower"},
	{Name: "udpfab.acks_sent_per_msg", Unit: "count", Better: "lower"},
	{Name: "udpfab.window_stalls", Unit: "count", Better: "lower"},
	{Name: "udpfab.dup_dropped", Unit: "count", Better: "lower"},
	// proc: the whole process over the traced window.
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.goroutines", Unit: "count", Better: "lower"},
	{Name: "proc.rss_peak_MB", Unit: "MB", Better: "lower"},
	{Name: "proc.trace_overhead_share", Unit: "share", Better: "lower"},
}

// workload is one closed-loop traffic shape on one backend.
type workload struct {
	name    string
	why     string
	backend string // "tcp", "shm" or "udp"
	// slots is how many messages one iteration keeps in flight per
	// direction; size is the largest of them in bytes.
	slots, size int
	// compute is what overlap workloads spin for between Isend and Wait.
	compute time.Duration
	// sampleEvery records spans for one iteration in this many.
	sampleEvery uint32
	gen         func(g *gen)
}

const (
	small = 64
	eager = 16 << 10
	large = 256 << 10
)

// workloads is the benchmark: every entry stresses a different layer, and
// why says which (README.md has the long form).
var workloads = []*workload{
	{
		name: "pingpong_64B_tcp", backend: "tcp", slots: 1, size: small, sampleEvery: 1,
		why: "latency-bound: one 64 B message in flight, so every fixed per-message cost (waiter wake, watcher cadence, nic, tcpfab flush gate, syscalls) is on the critical path",
		gen: pingpong,
	},
	{
		name: "stream_64B_shm", backend: "shm", slots: 32, size: small, sampleEvery: 64,
		why: "engine-bound message rate: the transport is nearly free and both cores saturate, so per-message CPU in core sets the rate",
		gen: stream,
	},
	{
		name: "stream_64B_udp", backend: "udp", slots: 32, size: small, sampleEvery: 64,
		why: "transport-bound message rate: udpfab's reliability sublayer (syscall per datagram, acks, window) dominates and the engine does little",
		gen: stream,
	},
	{
		name: "stream_256K_tcp", backend: "tcp", slots: 4, size: large, sampleEvery: 1,
		why: "bytes-bound goodput: rendezvous handshake, chunking, codec copies and bufpool do the work; a per-message optimisation predicts no change here",
		gen: stream,
	},
	{
		name: "overlap_eager_tcp", backend: "tcp", slots: 1, size: eager, sampleEvery: 1, compute: 50 * time.Microsecond,
		why: "paper Fig. 5: Isend 16 KiB, compute 50 us, Wait; only background progression (piom/core offload) can hide the send behind the compute",
		gen: overlap,
	},
	{
		name: "overlap_rdv_tcp", backend: "tcp", slots: 1, size: large, sampleEvery: 1, compute: 200 * time.Microsecond,
		why: "paper Fig. 6: Isend 256 KiB rendezvous, compute 200 us, Wait; the handshake must progress while the caller computes",
		gen: overlap,
	},
	{
		name: "bidir_mix_tcp", backend: "tcp", slots: 16, size: large, sampleEvery: 1,
		why: "guard: both ranks burst seeded mixed sizes, half the batches post receives late (unexpected pool, parked RTS, coalesced flushes); a gain tuned for ping-pong or one-way streams that costs bursts shows",
		gen: bidirMix,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// listing is the -list output: every workload and metric name, one per
// line, in the order BENCHMARK.json declares them.
func listing() string {
	var b strings.Builder
	for _, wl := range workloads {
		fmt.Fprintf(&b, "workload %s\n", wl.name)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "end_to_end %s %s %s %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Fprintf(&b, "per_layer %s %s %s\n", m.Name, m.Unit, m.Better)
	}
	return b.String()
}
