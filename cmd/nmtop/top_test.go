package main

import (
	"strings"
	"testing"
	"time"

	"pioman/internal/telemetry"
)

// cannedSnapshots builds a before/after pair the way a live endpoint
// would produce them: one registry, counters advanced between captures.
func cannedSnapshots() (*telemetry.Snapshot, *telemetry.Snapshot) {
	reg := telemetry.NewRegistry()
	sent := reg.Counter("node0.rail.shm.eager_sent", "")
	recv := reg.Counter("node0.rail.shm.recvs", "")
	lost := reg.Counter("node0.rail.shm.lost_frames", "")
	reg.Counter("node0.rail.shm.send_errs", "")
	occ := reg.Histogram("node0.rail.shm.batch_occupancy", "")
	reg.RegisterGauge("node0.rail.shm.stripe_weight_milli", "", func() uint64 { return 12000 })
	reg.RegisterGauge("node0.rail.shm.health_state", "", func() uint64 { return 0 })
	// A second rail sitting in probation, to pin the lifecycle column.
	reg.Counter("node0.rail.wan.eager_sent", "")
	reg.RegisterGauge("node0.rail.wan.health_state", "", func() uint64 { return 1 })
	reg.RegisterGauge("node0.rail.wan.stripe_weight_milli", "", func() uint64 { return 4 })
	sends := reg.Counter("node0.engine.sends_posted", "")
	dwell := reg.Histogram("node0.engine.progress_dwell_ns", "")
	pSent := reg.Counter("node0.peer.1.sent_msgs", "")
	pRecv := reg.Counter("node0.peer.1.recv_frames", "")
	hits := reg.Counter("process.bufpool.hits", "")
	misses := reg.Counter("process.bufpool.misses", "")
	// Cluster membership view: a 4-rank world one epoch in, with one
	// death verdict landing during the interval.
	reg.RegisterGauge("node0.cluster.epoch", "", func() uint64 { return 5 })
	reg.RegisterGauge("node0.cluster.alive", "", func() uint64 { return 2 })
	deaths := reg.Counter("node0.cluster.deaths", "")

	sent.Add(100)
	prev := reg.Snapshot()
	// One interval of traffic: 2000 messages, batches of 8, 3 lost frames.
	sent.Add(2000)
	recv.Add(2000)
	lost.Add(3)
	for i := 0; i < 250; i++ {
		occ.Observe(8)
	}
	sends.Add(2000)
	dwell.Observe(5000) // 5µs progress pass
	pSent.Add(2000)
	pRecv.Add(1999)
	hits.Add(90)
	misses.Add(10)
	deaths.Add(1)
	return prev, reg.Snapshot()
}

func TestRenderTop(t *testing.T) {
	prev, cur := cannedSnapshots()
	out := renderTop(telemetry.Delta(prev, cur), 2*time.Second)

	for _, want := range []string{
		"RAIL",
		"node0.shm",
		"1000", // 2000 msgs / 2s on both the rail and engine rows
		"PEER",
		"node0 -> 1",
		"ENGINE",
		"node0",
		"bufpool: 50 gets/s, 90.0% pooled",
		"weight",
		"state",
		"12",    // shm's live stripe weight, 12000 thousandths
		"0.004", // wan's, 4 thousandths
		"up",
		"node0.wan",
		"PROB", // the probation rail's lifecycle state
		"CLUSTER",
		"epoch",
		"deaths/int",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// The interval saw 3 lost frames and batches of 8: occupancy p50
	// lands in the [8,15] log2 bucket, reported as its upper bound.
	if !strings.Contains(out, "15") {
		t.Errorf("occupancy p50 missing (want bucket upper 15):\n%s", out)
	}
	if !strings.Contains(out, " 3") {
		t.Errorf("lost-frame count missing:\n%s", out)
	}
	// The baseline 100 sends predate the interval and must not leak into
	// the rate (which would read 1050/s).
	if strings.Contains(out, "1050") {
		t.Errorf("rate includes pre-interval counts:\n%s", out)
	}
}

// TestRenderTopQuietInterval pins the idle rendering: zero rates and "-"
// for histograms that saw nothing, rather than NaNs or stale quantiles.
func TestRenderTopQuietInterval(t *testing.T) {
	_, cur := cannedSnapshots()
	out := renderTop(telemetry.Delta(cur, cur), time.Second)
	if !strings.Contains(out, "-") {
		t.Errorf("idle histograms should render as '-':\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("idle interval rendered NaN:\n%s", out)
	}
}

// TestFetchSnapshot exercises the actual poll path against a live
// telemetry endpoint — the same Serve the workloads use.
func TestFetchSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("node0.engine.sends_posted", "").Add(7)
	addr, stop, err := telemetry.Serve(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	s, err := fetchSnapshot("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Value("node0.engine.sends_posted") != 7 {
		t.Fatalf("fetched snapshot value = %d, want 7", s.Value("node0.engine.sends_posted"))
	}
	if _, err := fetchSnapshot("http://" + addr + "/nope"); err == nil {
		t.Fatal("fetchSnapshot accepted a 404")
	}
}
