package conformance

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
	"pioman/internal/telemetry"
)

// RunPeerDeath runs the bounded-failure contract against the backend: a
// three-rank world (one distributed World per rank, sharing one fabric,
// so a rank can genuinely die while the others keep running) where rank
// 2's endpoint is killed mid-rendezvous. The engine's PeerDeadline
// detection must complete every pending request toward the dead rank
// with core.ErrPeerDead — no eternal replay, no hung Wait — new posts
// toward it must fail fast, the survivors must still round-trip, and
// the teardown must leak neither goroutines nor file descriptors
// (docs/CLUSTER.md).
func RunPeerDeath(t *testing.T, open OpenFabric) {
	t.Run("PeerDeath", func(t *testing.T) {
		goroutinesBefore := settleGoroutines(0, 0)
		fdsBefore := openFDCount()
		f := open(t, 3)
		const peerDeadline = 300 * time.Millisecond
		reg := telemetry.NewRegistry()
		worlds := make([]*mpi.World, 3)
		for rank := 0; rank < 3; rank++ {
			worlds[rank] = mpi.NewDistributed(mpi.Config{
				Mode:           core.Multithreaded,
				OffloadEager:   true,
				EnableBlocking: true,
				PeerDeadline:   peerDeadline,
				Metrics:        reg,
			}, failoverParams("rail"), mustEp(t, f, rank))
		}
		closed := make([]bool, 3)
		defer func() {
			for rank, w := range worlds {
				if !closed[rank] {
					closeWorld(t, w)
				}
			}
		}()

		// Phase 1: rank 0 opens a rendezvous toward rank 2 and posts a
		// receive from it, then returns with both requests pending — the
		// handshake is parked at the replayed RTS.
		msg := patterned(256 << 10)
		recvBuf := make([]byte, 64)
		var sendReq *core.SendReq
		var recvReq *core.RecvReq
		worlds[0].Node(0).Run(func(p *mpi.Proc) {
			sendReq = p.Isend(2, 7, msg)
			if !sendReq.Rendezvous() {
				t.Errorf("256 KiB send did not pick the rendezvous protocol")
			}
			recvReq = p.Irecv(2, 8, recvBuf)
		})

		// Kill rank 2: its endpoint closes mid-handshake, exactly like a
		// crashed process. Nothing will ever answer the RTS again.
		closeWorld(t, worlds[2])
		closed[2] = true
		killedAt := time.Now()

		// Phase 2: both pending requests must error-complete once rank
		// 2's silence outlives PeerDeadline, and a fresh post toward the
		// dead rank must fail fast instead of joining the replay queue.
		// The bound is deadline-plus-one-transport-stall, not a small
		// multiple of the deadline: a transport whose Send blocks while
		// it rides out a redial window (tcpfab's 3s dial retry) stalls
		// the maintenance pass that long before the verdict can land.
		const deadGrace = 8 * time.Second
		worlds[0].Node(0).Run(func(p *mpi.Proc) {
			if !p.Node.Eng.WaitAllTimeout(p.Th, deadGrace, sendReq.Req(), recvReq.Req()) {
				t.Fatalf("requests toward the dead rank still pending %v after the kill (PeerDeadline %v)",
					time.Since(killedAt), peerDeadline)
			}
			elapsed := time.Since(killedAt)
			if err := sendReq.Err(); !errors.Is(err, core.ErrPeerDead) {
				t.Errorf("pending rendezvous send completed with %v, want core.ErrPeerDead", err)
			}
			if err := recvReq.Err(); !errors.Is(err, core.ErrPeerDead) {
				t.Errorf("pending receive completed with %v, want core.ErrPeerDead", err)
			}
			t.Logf("pending requests errored %v after the kill (deadline %v)", elapsed, peerDeadline)
			if !p.Node.Eng.PeerDead(2) {
				t.Error("engine does not report rank 2 dead after the deadline")
			}
			late := p.Isend(2, 9, []byte("too late"))
			if err := late.Err(); !errors.Is(err, core.ErrPeerDead) {
				t.Errorf("post toward a dead rank returned %v, want fail-fast core.ErrPeerDead", err)
			}
			late.Release()
		})

		// Phase 3: the survivors still talk. Rank 1 echoes one eager
		// message back to rank 0 — the death of rank 2 must not have
		// poisoned the 0↔1 path.
		echoDone := make(chan struct{})
		go func() {
			defer close(echoDone)
			worlds[1].Node(1).Run(func(p *mpi.Proc) {
				buf := make([]byte, 4<<10)
				r := p.Irecv(0, 11, buf)
				if !p.Node.Eng.WaitAllTimeout(p.Th, recvDeadline, r.Req()) {
					t.Error("survivor rank 1 never received from rank 0 after the death")
					return
				}
				n := r.Len()
				r.Release()
				p.Send(0, 12, buf[:n])
			})
		}()
		worlds[0].Node(0).Run(func(p *mpi.Proc) {
			out := patterned(4 << 10)
			if err := p.SendErr(1, 11, out); err != nil {
				t.Errorf("survivor send 0->1 failed: %v", err)
			}
			back := make([]byte, len(out))
			r := p.Irecv(1, 12, back)
			if !p.Node.Eng.WaitAllTimeout(p.Th, recvDeadline, r.Req()) {
				t.Error("survivor round-trip never completed after the death")
			}
			r.Release()
		})
		<-echoDone

		snap := reg.Snapshot()
		if pd := snap.Value("node0.engine.peer_dead"); pd != 1 {
			t.Errorf("node0.engine.peer_dead = %d, want 1", pd)
		}
		if rf := snap.Value("node0.engine.reqs_failed"); rf < 3 {
			t.Errorf("node0.engine.reqs_failed = %d, want >= 3 (pending send, pending recv, fail-fast post)", rf)
		}
		if pd := snap.Value("node1.engine.peer_dead"); pd != 0 {
			t.Errorf("node1.engine.peer_dead = %d: the survivor path had no pending traffic toward rank 2", pd)
		}

		// Teardown gate: close everything and require the process to
		// settle back to its starting goroutine and fd budget — a dead
		// peer must not strand replay timers, watchers, or sockets.
		for rank, w := range worlds {
			if !closed[rank] {
				closeWorld(t, w)
				closed[rank] = true
			}
		}
		f.Close()
		if after := settleGoroutines(goroutinesBefore+2, 5*time.Second); after > goroutinesBefore+2 {
			t.Errorf("goroutines leaked: %d before, %d after teardown", goroutinesBefore, after)
		}
		if fdsBefore >= 0 {
			if fdsAfter := settleFDs(fdsBefore, 5*time.Second); fdsAfter > fdsBefore {
				t.Errorf("file descriptors leaked: %d before, %d after teardown", fdsBefore, fdsAfter)
			}
		}
	})
}

// openFDCount returns the process's open descriptor count, or -1 where
// /proc is unavailable (the fd gate is then skipped).
func openFDCount() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// settleFDs polls the descriptor count until it drops to target or the
// timeout passes, mirroring settleGoroutines: close(2) on sockets is
// asynchronous with respect to the poller goroutines that held them.
func settleFDs(target int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := openFDCount()
		if n <= target || time.Now().After(deadline) {
			return n
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
