package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/stats"
	"pioman/internal/telemetry"
	"pioman/internal/topo"
)

// The end-to-end pass splits its window over several fresh worlds, and
// cuts each world's share into equal slices. A metric's value is the
// median of its per-slice values across all the worlds, its spread their
// inter-quartile range over that median. Several worlds, because on a
// small host a world settles into a mode (which CPU the kernel picks for
// a connection's softirq work, where the scheduler parks the pollers)
// that can hold for its whole life, and ten runs of one world each spread
// half again as wide as ten runs of four.
const (
	worlds = 4
	slices = 4 // per world
)

// watchdogGrace is how long past its window a workload may run before it
// is abandoned as hung.
const watchdogGrace = 30 * time.Second

// openFabric opens the named loopback backend for two ranks, with the
// rail parameters the engine runs it under.
func openFabric(backend string) (fabric.Fabric, nic.Params, error) {
	switch backend {
	case "tcp":
		f, err := tcpfab.NewLocal(2)
		return f, nic.RealParams(), err
	case "shm":
		f, err := shmfab.NewLocal(2, "")
		return f, nic.ShmParams(), err
	case "udp":
		f, err := udpfab.NewLocal(2)
		return f, nic.UdpParams(), err
	}
	return nil, nic.Params{}, fmt.Errorf("unknown backend %q", backend)
}

// world is a live two-rank in-process world over one real loopback
// backend, in the configuration cmd/pingpong's real modes deploy.
type world struct {
	*mpi.World
	rail   string // rail name, as the registry spells it
	shmDir string // shmfab's ring directory, which Close must remove
	setup  time.Duration
}

// openWorld times fabric open through the first Barrier's return.
func openWorld(backend string, reg *telemetry.Registry) (*world, error) {
	t0 := time.Now()
	f, rail, err := openFabric(backend)
	if err != nil {
		return nil, fmt.Errorf("open %s fabric: %w", backend, err)
	}
	w := &world{rail: rail.Name}
	if l, ok := f.(*shmfab.Local); ok {
		w.shmDir = l.Dir()
	}
	w.World = mpi.NewWorld(mpi.Config{
		Nodes:          2,
		Machine:        topo.Machine{Sockets: 1, CoresPerSocket: 2},
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		NoIdlePolling:  true,
		MX:             rail,
		Fabrics:        map[string]fabric.Fabric{rail.Name: f},
		Metrics:        reg,
	})
	w.RunAll(func(p *mpi.Proc) { p.Barrier() })
	w.setup = time.Since(t0)
	return w, nil
}

// close tears the world down and checks that nothing of it outlives it:
// goroutines back to baseline, shmfab's ring directory gone.
func (w *world) close(baseline int) error {
	w.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines after teardown, %d before the workload", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	if w.shmDir != "" {
		if _, err := os.Stat(w.shmDir); !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("shmfab ring directory %s survived teardown", w.shmDir)
		}
	}
	return nil
}

// procSnap is the process-wide state the traced pass takes deltas of.
type procSnap struct {
	reg        *telemetry.Snapshot
	mallocs    uint64
	cpu        time.Duration
	pool       bufpool.Stats
	goroutines int
	rssPeakKB  int64 // Linux reports ru_maxrss in KiB
}

func snapProc(reg *telemetry.Registry) procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSnap{
		reg:        reg.Snapshot(),
		mallocs:    m.Mallocs,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		pool:       bufpool.Snapshot(),
		goroutines: runtime.NumGoroutine(),
		rssPeakKB:  ru.Maxrss,
	}
}

// window is the outcome of one measured window of one workload.
type window struct {
	run                          *run
	setup                        time.Duration
	rail                         string // rail name, as the registry spells it
	logs                         [2][]iterRec
	attempted, completed, failed int64
	// traced windows only:
	tracers       [2]*tracer
	before, after procSnap            // at the end of warm-up and of the loop
	rdv           *telemetry.Snapshot // after the rendezvous probe
}

// errHung marks a workload the watchdog abandoned; the process cannot
// clean up after it and must exit.
var errHung = errors.New("workload hung")

// measure opens a world, runs wl on it for warm+win, and tears it down.
// A failed operation, a hang or a leak is an error; the window, when not
// nil, still carries the operation counts.
func measure(wl *workload, seed int64, warm, win time.Duration, traced bool) (*window, error) {
	baseline := runtime.NumGoroutine()
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
	}
	w, err := openWorld(wl.backend, reg)
	if err != nil {
		return nil, err
	}
	r := &run{wl: wl, seed: seed, warm: warm, window: win, ref: patterns(seed, wl.slots, wl.size)}
	res := &window{run: r, setup: w.setup, rail: w.rail}
	var gens [2]*gen
	for rank := range gens {
		if traced {
			res.tracers[rank] = newTracer()
		}
		gens[rank] = newGen(r, rank, res.tracers[rank])
	}
	var opErr error
	collect := func() {
		for rank, g := range gens {
			res.logs[rank] = g.log
			res.attempted += g.ops.attempted.Load()
			res.completed += g.ops.completed.Load()
			res.failed += g.ops.failed.Load()
			if opErr == nil {
				opErr = g.err
			}
		}
	}

	r.start = time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.RunAll(func(p *mpi.Proc) {
			g := gens[p.Rank()]
			g.p = p
			wl.gen(g)
		})
	}()
	watchdog := time.After(warm + win + watchdogGrace)
	if traced {
		select {
		case <-time.After(warm):
		case <-done: // only if the loop broke early; the deltas are then empty
		}
		res.before = snapProc(reg)
	}
	select {
	case <-done:
	case <-watchdog:
		collect()
		pending := res.attempted - res.completed
		res.failed += pending
		return res, fmt.Errorf("%w: %s still running %v after its window, %d operations pending",
			errHung, wl.name, watchdogGrace, pending)
	}
	collect()
	if traced {
		res.after = snapProc(reg)
		rdvProbe(w)
		res.rdv = reg.Snapshot()
	}
	if err := w.close(baseline); err != nil {
		return res, err
	}
	if opErr != nil {
		return res, fmt.Errorf("%s: %d of %d operations failed, first: %w", wl.name, res.failed, res.attempted, opErr)
	}
	return res, nil
}

// rdvProbe pushes a fixed handful of 256 KiB rendezvous transfers through
// a traced world after its window, so that the handshake histograms hold
// samples on eager-only workloads too (on rendezvous workloads the
// window's thousands of transfers swamp these).
func rdvProbe(w *world) {
	const n = 32
	w.RunAll(func(p *mpi.Proc) {
		buf := make([]byte, large)
		for i := 0; i < n; i++ {
			if p.Rank() == 0 {
				p.Send(1, tagData, buf)
			} else {
				p.Recv(0, tagData, buf)
			}
		}
	})
}

// sliceStats are the window's per-slice values of the end-to-end metrics.
type sliceStats struct {
	iterP50us, msgsPerS, goodputMBps []float64
	// durs are rank 0's timed iteration durations over the whole window,
	// untimed its untimed ones (overlap's compute-free iterations).
	durs, untimed *stats.Sample
	msgs          int64 // payload messages delivered from the window's start on
}

// cut bins the window's iterations into slices.
func (w *window) cut() sliceStats {
	r := w.run
	epoch, span := int64(r.warm), int64(r.window)
	var msgs, bytes [slices]int64
	var durs [slices]*stats.Sample
	for i := range durs {
		durs[i] = stats.NewSample(0)
	}
	st := sliceStats{durs: stats.NewSample(0), untimed: stats.NewSample(0)}
	for rank, log := range w.logs {
		for i, rec := range log {
			if rec.end < epoch {
				continue
			}
			st.msgs += int64(rec.msgs)
			s := (rec.end - epoch) * slices / span
			if s >= slices {
				continue // the iteration that noticed the window was over
			}
			msgs[s] += int64(rec.msgs)
			bytes[s] += int64(rec.bytes)
			if rank == 0 && i > 0 {
				d := time.Duration(rec.end - log[i-1].end)
				if rec.timed {
					durs[s].Add(d)
					st.durs.Add(d)
				} else {
					st.untimed.Add(d)
				}
			}
		}
	}
	sliceSec := float64(span) / slices / 1e9
	for s := 0; s < slices; s++ {
		st.msgsPerS = append(st.msgsPerS, float64(msgs[s])/sliceSec)
		st.goodputMBps = append(st.goodputMBps, float64(bytes[s])/sliceSec/1e6)
		if durs[s].N() > 0 {
			st.iterP50us = append(st.iterP50us, stats.US(durs[s].Median()))
		}
	}
	return st
}

// quartiles returns the quartiles of vals as Python's
// statistics.quantiles(vals, n=4) computes them, which is how the
// benchmark's driver measures spread.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	m := len(x)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// summarize reduces per-slice (or per-set-up) values to their median.
func summarize(vals []float64) metricValue {
	q1, q2, q3 := quartiles(vals)
	return metricValue{Value: q2, Spread: share(q3-q1, q2), Samples: len(vals)}
}
