package mpi_test

import (
	"runtime"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/telemetry"
	"pioman/internal/testenv"
	"pioman/internal/topo"
)

// sequentialWorld opens a two-rank Sequential world over the named real
// rail — "shm" (shared-memory rings), "tcp" (loopback sockets), "udp"
// (loopback datagrams), or "bonded" (tcp the default rail, shm beside
// it; the two weighted rails stripe every rendezvous of 128 KiB or
// more).
func sequentialWorld(t *testing.T, reg *telemetry.Registry, rail string) *mpi.World {
	t.Helper()
	cfg := mpi.Config{Nodes: 2, Mode: core.Sequential, Fabrics: map[string]fabric.Fabric{}, Metrics: reg}
	if rail == "tcp" || rail == "bonded" {
		f, err := tcpfab.NewLocal(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MX = nic.RealParams()
		cfg.Fabrics[cfg.MX.Name] = f
	}
	if rail == "udp" {
		f, err := udpfab.NewLocal(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MX = nic.UdpParams()
		cfg.Fabrics[cfg.MX.Name] = f
	}
	if rail == "shm" || rail == "bonded" {
		f, err := shmfab.NewLocal(2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		shm := nic.ShmParams()
		if cfg.MX.Name == "" {
			cfg.MX = shm
		} else {
			cfg.ExtraRails = []nic.Params{shm}
		}
		cfg.Fabrics[shm.Name] = f
	}
	if cfg.MX.Name == "" {
		t.Fatalf("unknown rail %q", rail)
	}
	return mpi.NewWorld(cfg)
}

// engineRoundTripAllocs measures the steady-state malloc count of a
// size-byte round trip through the full engine (Isend/Irecv, strategy
// queue or rendezvous handshake, nic driver, transport, matching,
// delivery) over the named real rail — "shm" (shared-memory rings) or
// "tcp" (loopback sockets) — with or without a telemetry registry
// attached. It runs the Sequential engine — progress is driven inline by
// the two communicating threads, so there are no background progress
// workers allocating on their own schedule — and measures the
// process-wide malloc count around a long measured window, which charges
// BOTH ranks' halves of every exchange to the budget. Since the engine's
// progress passes drain arrivals through the batched receive path
// (PollBatch into the engine's construction-sized batch buffer), this
// also pins that the batched path stays on budget.
func engineRoundTripAllocs(t *testing.T, reg *telemetry.Registry, rail string, size int) float64 {
	t.Helper()
	w := sequentialWorld(t, reg, rail)
	defer w.Close()

	const (
		warm  = 100
		meas  = 500
		tagRT = 5
	)
	var perOp float64
	w.RunAll(func(p *mpi.Proc) {
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i*5 + 1)
		}
		buf := make([]byte, size)
		p.Barrier()
		var m0, m1 runtime.MemStats
		for it := 0; it < warm+meas; it++ {
			if it == warm && p.Rank() == 0 {
				runtime.ReadMemStats(&m0)
			}
			if p.Rank() == 0 {
				p.Send(1, tagRT, msg)
				p.Recv(1, tagRT, buf)
			} else {
				p.Recv(0, tagRT, buf)
				p.Send(0, tagRT, msg)
			}
		}
		if p.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perOp = float64(m1.Mallocs-m0.Mallocs) / meas
		}
		p.Barrier()
	})
	return perOp
}

// budget is allocs per round trip — two sends plus two receives across
// both ranks. The raw fabric path is allocation-free (internal/fabric's
// alloc tests pin that at ≤2); the engine adds scheduler yields and
// bookkeeping that allocate rarely, so the end-to-end ceiling stays low
// but not zero. The telemetry-on test asserts the SAME budget: metric
// recording must be allocation-free by construction.
const engineAllocBudget = 2.0

// TestEngineEagerRoundTripAllocs asserts the end-to-end budget of the
// zero-allocation hot path at the top of the stack, unmetered, over
// shared-memory rings and over loopback TCP, where the polling thread
// reads the socket itself.
func TestEngineEagerRoundTripAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, rail := range []string{"shm", "tcp"} {
		t.Run(rail, func(t *testing.T) {
			perOp := engineRoundTripAllocs(t, nil, rail, 4<<10)
			t.Logf("engine 4KiB eager round trip over %s: %.2f allocs/op (budget %.1f)", rail, perOp, engineAllocBudget)
			if perOp > engineAllocBudget {
				t.Errorf("engine 4KiB eager round trip over %s allocates %.2f/op, budget %.1f", rail, perOp, engineAllocBudget)
			}
		})
	}
}

// TestEngineEagerRoundTripAllocsMetered repeats the measurement with a
// full telemetry registry attached (engine + rails + per-peer counters +
// occupancy histograms live) and holds the hot path to the same
// allocation budget: turning observability on must not cost the
// zero-allocation property the engine's hot path is built around. It
// also sanity-checks that the registry actually saw the traffic, so the
// assertion cannot pass vacuously with metrics silently detached.
func TestEngineEagerRoundTripAllocsMetered(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	reg := telemetry.NewRegistry()
	perOp := engineRoundTripAllocs(t, reg, "shm", 4<<10)
	t.Logf("metered engine 4KiB eager round trip: %.2f allocs/op (budget %.1f)", perOp, engineAllocBudget)
	if perOp > engineAllocBudget {
		t.Errorf("metered engine round trip allocates %.2f/op, budget %.1f", perOp, engineAllocBudget)
	}
	snap := reg.Snapshot()
	if sent := snap.Value("node0.engine.sends_posted"); sent < 500 {
		t.Errorf("registry saw only %d sends from node0, metering appears detached", sent)
	}
	if got := snap.Value("node0.peer.1.sent_msgs"); got == 0 {
		t.Error("per-peer counter node0.peer.1.sent_msgs recorded nothing")
	}
	if occ := snap.Get("node0.rail.shm.batch_occupancy"); occ == nil || occ.Hist.Count == 0 {
		t.Error("rail occupancy histogram recorded nothing")
	}
}

// TestEngineRendezvousRoundTripAllocs holds a 256 KiB rendezvous round
// trip — RTS, CTS, DATA and DATA-ack both ways — to the same budget as
// the eager path, over loopback TCP, over shared-memory rings, and over
// both bonded in one world, where every transfer stripes. Every piece of
// per-message rendezvous state is pooled or embedded: the RTS payload,
// the reception state (embedded in the receive request), the DATA rail
// set and its stripe spans (on the sender's stack), and the transports'
// large-frame buffers. An allocation that creeps back in here is paid
// once per bulk message.
func TestEngineRendezvousRoundTripAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, rail := range []string{"tcp", "shm", "bonded"} {
		t.Run(rail, func(t *testing.T) {
			// The bonded row reads its per-rail DATA counts from a
			// registry, so the budget cannot be met by not striping.
			var reg *telemetry.Registry
			if rail == "bonded" {
				reg = telemetry.NewRegistry()
			}
			perOp := engineRoundTripAllocs(t, reg, rail, 256<<10)
			t.Logf("engine 256KiB rendezvous round trip over %s: %.2f allocs/op (budget %.1f)", rail, perOp, engineAllocBudget)
			if perOp > engineAllocBudget {
				t.Errorf("engine 256KiB rendezvous round trip over %s allocates %.2f/op, budget %.1f", rail, perOp, engineAllocBudget)
			}
			if reg == nil {
				return
			}
			snap := reg.Snapshot()
			for _, name := range []string{"real", "shm"} {
				if sent := snap.Value("node0.rail." + name + ".data_sent"); sent == 0 {
					t.Errorf("bonded rail %s carried no DATA chunks", name)
				}
			}
		})
	}
}

// TestEngineAggregatedWindowAllocs holds the default aggregating
// submission path to the zero-allocation budget, per message: rank 0
// posts 32 × 64 B Isends and then waits on them, so each window leaves
// as aggregated trains (a pooled train encode the rail's release returns
// on the send side; an in-place walk and a released frame on the
// receive side), and rank 1 receives the window and returns a one-byte
// credit. Stats().Aggregated must move, so the budget cannot be met by
// windows that silently left one frame per message.
func TestEngineAggregatedWindowAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		window    = 32
		size      = 64
		warm      = 50
		meas      = 300
		tagData   = 7
		tagCredit = 8
		budget    = 0.05
	)
	for _, rail := range []string{"shm", "tcp", "udp"} {
		t.Run(rail, func(t *testing.T) {
			w := sequentialWorld(t, nil, rail)
			defer w.Close()
			var perMsg float64
			w.RunAll(func(p *mpi.Proc) {
				var credit [1]byte
				p.Barrier()
				if p.Rank() == 0 {
					data := make([]byte, size)
					reqs := make([]*core.SendReq, window)
					var m0, m1 runtime.MemStats
					for it := 0; it < warm+meas; it++ {
						if it == warm {
							runtime.ReadMemStats(&m0)
						}
						for k := range reqs {
							reqs[k] = p.Isend(1, tagData, data)
						}
						for _, r := range reqs {
							p.WaitSend(r)
							r.Release()
						}
						p.Recv(1, tagCredit, credit[:])
					}
					runtime.ReadMemStats(&m1)
					perMsg = float64(m1.Mallocs-m0.Mallocs) / (meas * window)
				} else {
					bufs := make([][size]byte, window)
					reqs := make([]*core.RecvReq, window)
					for it := 0; it < warm+meas; it++ {
						for k := range reqs {
							reqs[k] = p.Irecv(0, tagData, bufs[k][:])
						}
						for _, r := range reqs {
							p.WaitRecv(r)
							r.Release()
						}
						p.Send(0, tagCredit, credit[:])
					}
				}
				p.Barrier()
			})
			st := w.Node(0).Eng.Stats()
			t.Logf("engine %d x %d B window over %s: %.4f allocs/msg (budget %.2f), %d of %d eager submits aggregated",
				window, size, rail, perMsg, budget, st.Aggregated, st.EagerSubmits)
			if st.Aggregated == 0 {
				t.Fatal("no message left inside an aggregated train")
			}
			if perMsg > budget {
				t.Errorf("aggregated window over %s allocates %.4f/msg, budget %.2f", rail, perMsg, budget)
			}
		})
	}
}

// TestEngineBlockingWaitAllocs pins the wait that outlives its spin
// budget — overlap_rdv_tcp's shape, where the peer computes longer than
// the waiter spins — at zero allocations per blocked wait, in
// testing.AllocsPerRun's integer sense: the waiter's thread blocks on
// the request's completion flag through a pooled parker, where the flag
// used to make a channel per blocking wait (one allocation each). The
// world is the multithreaded real-transport configuration nmperf runs.
// Rank 0 sends a go-ahead and waits for the reply, which rank 1 sends
// only after computing twice the longest spin budget, so every one of
// rank 0's waits blocks; rank 1's wait for the next go-ahead may block
// too. Each blocked wait re-acquires a core, so the two schedulers count
// them, and the budget is per blocked wait. What remains under it is
// sync.Pool refills, when a buffer released on one processor is wanted
// on another.
func TestEngineBlockingWaitAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		warm    = 100
		meas    = 500
		tagGo   = 5
		tagRep  = 6
		compute = 600 * time.Microsecond
		budget  = 0.1
	)
	f, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	params := nic.ShmParams()
	w := mpi.NewWorld(mpi.Config{
		Nodes:          2,
		Machine:        topo.Machine{Sockets: 1, CoresPerSocket: 2},
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		NoIdlePolling:  true,
		MX:             params,
		Fabrics:        map[string]fabric.Fabric{params.Name: f},
	})
	defer w.Close()
	if spin := w.Node(0).Srv.WaitSpin(); 2*spin > compute {
		t.Fatalf("compute %v does not outlive twice the %v spin budget", compute, spin)
	}
	grants := func() uint64 {
		return w.Node(0).Sch.Stats().ThreadsRun + w.Node(1).Sch.Stats().ThreadsRun
	}
	var mallocs, blocked uint64
	w.RunAll(func(p *mpi.Proc) {
		msg := make([]byte, 64)
		buf := make([]byte, 64)
		p.Barrier()
		var m0, m1 runtime.MemStats
		var g0 uint64
		for it := 0; it < warm+meas; it++ {
			if p.Rank() == 1 {
				p.Recv(0, tagGo, buf)
				p.Compute(compute)
				p.Send(0, tagRep, msg)
				continue
			}
			if it == warm {
				g0 = grants()
				runtime.ReadMemStats(&m0)
			}
			p.Send(1, tagGo, msg)
			p.Recv(1, tagRep, buf)
		}
		if p.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			mallocs, blocked = m1.Mallocs-m0.Mallocs, grants()-g0
		}
		p.Barrier()
	})
	// A host stall longer than the compute can let one of rank 0's waits
	// finish inside its spin; half is still plenty of signal.
	if blocked < meas/2 {
		t.Fatalf("only %d blocked waits in %d exchanges: rank 0's waits did not block", blocked, meas)
	}
	perWait := float64(mallocs) / float64(blocked)
	t.Logf("blocking 64 B exchanges over shm: %d allocs over %d blocked waits in %d exchanges (%.3f per blocked wait, budget %.1f)",
		mallocs, blocked, meas, perWait, budget)
	if perWait > budget {
		t.Errorf("a blocked wait allocates %.3f times, budget %.1f", perWait, budget)
	}
}
