package exp

import (
	"strings"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/ptime"
	"pioman/internal/stats"
	"pioman/internal/topo"
)

func init() {
	// Keep the harness's own tests fast; the full-resolution sweeps run
	// through bench_test.go and cmd/nmbench.
	Quick = true
}

func TestGridDims(t *testing.T) {
	cases := []struct {
		n, rows, cols int
	}{
		{4, 2, 2}, {16, 4, 4}, {8, 2, 4}, {6, 2, 3}, {1, 1, 1}, {7, 1, 7},
	}
	for _, c := range cases {
		g := dims(c.n)
		if g.rows != c.rows || g.cols != c.cols {
			t.Errorf("dims(%d) = %dx%d, want %dx%d", c.n, g.rows, g.cols, c.rows, c.cols)
		}
	}
}

func TestGridPlaceAndNeighbors(t *testing.T) {
	g := dims(16) // 4x4
	r, c := g.place(6)
	if r != 1 || c != 2 {
		t.Fatalf("place(6) = (%d,%d), want (1,2)", r, c)
	}
	// Corner 0 has 2 neighbors, edge 1 has 3, interior 5 has 4.
	if n := len(g.neighbors(0)); n != 2 {
		t.Errorf("corner neighbors = %d, want 2", n)
	}
	if n := len(g.neighbors(1)); n != 3 {
		t.Errorf("edge neighbors = %d, want 3", n)
	}
	if n := len(g.neighbors(5)); n != 4 {
		t.Errorf("interior neighbors = %d, want 4", n)
	}
	// Neighbor relation is symmetric.
	for tid := 0; tid < 16; tid++ {
		for _, nb := range g.neighbors(tid) {
			found := false
			for _, back := range g.neighbors(nb) {
				if back == tid {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbor relation asymmetric: %d->%d", tid, nb)
			}
		}
	}
}

func TestGridNodeSplit(t *testing.T) {
	g := dims(16) // 4x4, split over 2 nodes by column (Fig. 8)
	for _, tc := range []struct{ col, node int }{{0, 0}, {1, 0}, {2, 1}, {3, 1}} {
		if got := g.node(tc.col, 2); got != tc.node {
			t.Errorf("node(col=%d) = %d, want %d", tc.col, got, tc.node)
		}
	}
	// Degenerate: more nodes than columns must stay in range.
	if got := g.node(0, 64); got != 0 {
		t.Errorf("node(0, 64) = %d", got)
	}
	one := dims(1)
	if got := one.node(0, 2); got < 0 || got >= 2 {
		t.Errorf("1x1 grid node = %d out of range", got)
	}
}

func TestPairTagUnique(t *testing.T) {
	seen := map[int]bool{}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a == b {
				continue
			}
			tag := pairTag(a, b)
			if seen[tag] {
				t.Fatalf("pairTag(%d,%d) collides", a, b)
			}
			seen[tag] = true
		}
	}
}

func TestItersQuickFloor(t *testing.T) {
	w, m := iters(20, 200)
	if w < 2 || m < 5 {
		t.Fatalf("quick iters too small: %d/%d", w, m)
	}
	if w > 20 || m > 200 {
		t.Fatalf("quick iters not reduced: %d/%d", w, m)
	}
}

// chargedMedians runs the Fig. 4 exchange on a two-rank world of cfg for
// each size and returns rank 0's per-size median of what one iteration
// billed to the application goroutine's own virtual-CPU meter
// (ptime.Charged). Under ptime.SetVirtual that meter is a pure function
// of which model costs the application thread paid itself; no clock is
// read, so the result does not depend on the host.
func chargedMedians(cfg mpi.Config, sizes []int, comp time.Duration, warmup, measured int) []time.Duration {
	cfg.Machine = topo.Machine{Sockets: 1, CoresPerSocket: 4}
	w := mpi.NewWorld(cfg)
	defer w.Close()
	medians := make([]time.Duration, len(sizes))
	for i, size := range sizes {
		w.RunAll(func(p *mpi.Proc) {
			peer := 1 - p.Rank()
			data := make([]byte, size)
			buf := make([]byte, size)
			p.Barrier()
			sample := stats.NewSample(measured)
			for it := 0; it < warmup+measured; it++ {
				before := ptime.Charged()
				exchangeOnce(p, peer, 1, data, buf, comp)
				if it >= warmup {
					sample.Add(ptime.Charged() - before)
				}
			}
			if p.Rank() == 0 {
				medians[i] = sample.Median()
			}
		})
	}
	return medians
}

// TestFig5ShapeQuick asserts Fig. 5 (§4.1) on what is exact. With 20 µs
// of computation per iteration, the sequential engine's application
// thread pays the eager submission itself — SubmitOverhead + CopyCost(n)
// + DMASetup of the MX cost model — while under the offloading engine an
// idle core pays it and the application thread is billed the computation
// alone. The per-size median gap between the two meters is therefore the
// submission cost moved off the application thread, and it widens with
// size: the figure's shape, read from virtual-CPU meters instead of a
// stopwatch. The upper bound allows one extra CopyCost(n): when the
// peer's message lands before the sequential caller has posted its
// receive, the caller's inline pass also pays the unexpected-message
// copy, and on some schedules that is the median iteration. With the
// linear copy cost, submit(2n) = submit(n) + CopyCost(n): a size's
// upper bound is the next size's lower bound, so a step of the sweep
// may tie but never narrow, and the ends are strictly apart.
func TestFig5ShapeQuick(t *testing.T) {
	ptime.SetVirtual(true)
	t.Cleanup(func() { ptime.SetVirtual(false) })
	const comp = 20 * time.Microsecond
	sizes := Fig5Sizes()
	seq := chargedMedians(mpi.DefaultSequential(2), sizes, comp, 20, 100)
	off := chargedMedians(mpi.DefaultMultithreaded(2), sizes, comp, 20, 100)
	cost := nic.MXParams().Cost
	gaps := make([]time.Duration, len(sizes))
	for i, n := range sizes {
		if off[i] < comp {
			t.Errorf("%d B: offloading thread charged %v, below its %v of computation", n, off[i], comp)
		}
		submit := cost.SubmitOverhead + cost.CopyCost(n) + cost.DMASetup
		gaps[i] = seq[i] - off[i]
		if gaps[i] < submit || gaps[i] > submit+cost.CopyCost(n) {
			t.Errorf("%d B: sequential %v - offload %v = %v, want the submission cost moved off the application thread: [%v, %v]",
				n, seq[i], off[i], gaps[i], submit, submit+cost.CopyCost(n))
		}
		if i > 0 && gaps[i] < gaps[i-1] {
			t.Errorf("%d B: gap %v narrows from the previous size's %v", n, gaps[i], gaps[i-1])
		}
	}
	if last := len(gaps) - 1; gaps[last] <= gaps[0] {
		t.Errorf("gap does not widen across the sweep: %v at %d B, %v at %d B",
			gaps[0], sizes[0], gaps[last], sizes[last])
	}
}

// TestFig6ShapeQuick runs the Fig. 6 (§4.2) rendezvous sweep and checks
// that every point was measured. It does not assert that progression
// beats the baseline: rendezvous is zero-copy, so the figure's effect is
// handshake *timing* — the RTS/CTS exchange advancing while the caller
// computes — not CPU moved between threads, and in this harness neither
// clock can witness it (busy-wait charging measures host scheduling on a
// small host; under ptime.SetVirtual Compute returns in zero wall time,
// so nothing can progress "during" it). The wall-clock witness is
// nmperf's overlap_rdv_tcp workload (piom.overlap_ratio, BENCH_nmperf.json);
// the exact version waits for ROADMAP item 2's virtual-time executive.
func TestFig6ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full rendezvous sweep")
	}
	pts := RunFig6()
	if len(pts) != len(Fig6Sizes()) {
		t.Fatalf("got %d points, want %d", len(pts), len(Fig6Sizes()))
	}
	for _, p := range pts {
		if p.Reference <= 0 || p.Sequential <= 0 || p.Offload <= 0 {
			t.Fatalf("non-positive measurement at size %d: %+v", p.Size, p)
		}
	}
}

func TestTable1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	cfg := DefaultTable1(4)
	cfg.Warmup, cfg.Iters = 5, 25
	row := RunTable1Row(cfg)
	if row.NoOffload <= 0 || row.Offload <= 0 {
		t.Fatalf("non-positive measurements: %+v", row)
	}
	// Offloading must not catastrophically regress the application.
	if row.Offload > row.NoOffload*2 {
		t.Errorf("offload (%v) more than 2x baseline (%v)", row.Offload, row.NoOffload)
	}
}

func TestPingpongQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	rows := RunPingpongRails(core.Multithreaded, []int{64, 4096, 64 << 10}, true)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.HalfRTT <= 0 {
			t.Fatalf("size %d: non-positive latency", r.Size)
		}
	}
	// Bandwidth must increase with size in this range.
	if rows[2].BandwidthMBps <= rows[0].BandwidthMBps {
		t.Errorf("bandwidth not increasing: %v", rows)
	}
	// Latency for 64B must be in the right ballpark (µs, not ms).
	if rows[0].HalfRTT > time.Millisecond {
		t.Errorf("64B latency %v implausible", rows[0].HalfRTT)
	}
}

func TestAblationOffloadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	rows := RunAblationOffload(16 << 10)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]time.Duration{}
	for _, r := range rows {
		byName[r.Name] = r.Value
	}
	// The offloaded Isend must return much faster than the inline one
	// (registration vs a 6.5µs copy + submission).
	on := byName["multithreaded offload=on"]
	off := byName["multithreaded offload=off"]
	if on >= off {
		t.Errorf("offloaded Isend (%v) not faster than inline (%v)", on, off)
	}
}

func TestFormatters(t *testing.T) {
	pts := []OverlapPoint{{Size: 1024, Reference: time.Microsecond}}
	if !strings.Contains(FormatOverlap(pts, "T"), "1024") {
		t.Error("FormatOverlap missing size")
	}
	rows := []Table1Row{{Threads: 4, NoOffload: time.Millisecond, Offload: time.Millisecond, SpeedupPct: 1}}
	if !strings.Contains(FormatTable1(rows), "4") {
		t.Error("FormatTable1 missing threads")
	}
	ab := []AblationRow{{Name: "x", Value: time.Microsecond}}
	if !strings.Contains(FormatAblation("T", ab), "x") {
		t.Error("FormatAblation missing name")
	}
	pp := []PingpongRow{{Size: 8, HalfRTT: time.Microsecond, BandwidthMBps: 8}}
	if !strings.Contains(FormatPingpong(pp, "T"), "8") {
		t.Error("FormatPingpong missing size")
	}
}
