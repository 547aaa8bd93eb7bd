package conformance

import (
	"bytes"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/telemetry"
)

// Self-healing suites: the today-hangs case (a rail dies *between* span
// submission and delivery, so submission-time failure detection sees
// nothing) and the rail death-and-recovery soak. Both drive the engine's
// acked rendezvous replay and the probation → re-admission lifecycle
// end to end over the backend under test.

// RunSelfHealing runs the killed-rail replay case against the backend: a
// two-rank world over a single rail whose sender-side endpoint is killed
// by the Chaos wrapper right after the RTS — every DATA frame of the
// rendezvous vanishes in flight, with the loss surfacing only after the
// submission window (KillLossDelay), so neither the synchronous
// counters-quiet check nor multirail failover can see it. Without acked
// replay the transfer hangs forever; with it, the resend timer re-posts
// the data once the endpoint revives and the receiver's DATA-ack
// completes the send. The engine's replay counter must show the timer
// actually fired.
func RunSelfHealing(t *testing.T, open OpenFabric) {
	t.Run("RailKilledAfterSubmission", func(t *testing.T) {
		// KillAfter 1: rank 0's first frame (the RTS) passes, then the
		// endpoint dies for KillDuration — squarely the window between
		// span submission and delivery. The kill is deterministic; no
		// seed is involved.
		chaotic := NewChaos(open(t, 2), ChaosConfig{
			KillAfter:     1,
			KillDuration:  200 * time.Millisecond,
			KillLossDelay: 2 * time.Millisecond,
			KillRanks:     []int{0},
		})
		reg := telemetry.NewRegistry()
		w := mpi.NewWorld(mpi.Config{
			Nodes:          2,
			Mode:           core.Multithreaded,
			OffloadEager:   true,
			EnableBlocking: true,
			MX:             failoverParams("railA"),
			Fabrics:        map[string]fabric.Fabric{"railA": chaotic},
			Metrics:        reg,
		})
		defer closeWorld(t, w)
		msg := patterned(256 << 10)
		w.RunAll(func(p *mpi.Proc) {
			if p.Rank() == 0 {
				r := p.Isend(1, 5, msg)
				if !r.Rendezvous() {
					t.Errorf("256 KiB send did not pick the rendezvous protocol")
				}
				if !p.Node.Eng.WaitAllTimeout(p.Th, recvDeadline, r.Req()) {
					t.Errorf("rendezvous send never completed: acked replay did not recover the killed rail")
				}
			} else {
				buf := make([]byte, len(msg))
				r := p.Irecv(0, 5, buf)
				if !p.Node.Eng.WaitAllTimeout(p.Th, recvDeadline, r.Req()) {
					t.Errorf("rendezvous receive never completed: acked replay did not recover the killed rail")
					return
				}
				if !bytes.Equal(buf, msg) {
					t.Errorf("replayed rendezvous arrived corrupted")
				}
			}
		})
		snap := reg.Snapshot()
		if replays := snap.Value("node0.engine.rdv_replays"); replays == 0 {
			t.Error("transfer completed but node0.engine.rdv_replays is 0: replay timer never fired")
		}
		if acked := snap.Value("node0.engine.rdv_acked"); acked == 0 {
			t.Error("node0.engine.rdv_acked is 0: rendezvous completed without a receiver data-ack")
		}
	})
}

// RunSelfHealSoak runs the rail death-and-recovery soak against the
// backend: a bonded two-rail world where the secondary rail's sender
// endpoint is killed mid-run and later revives, under a stream of
// striped rendezvous. The world must (1) keep completing transfers
// through the dead window via acked replay, (2) demote the killed rail
// to probation when its loss surfaces, (3) readmit it after a successful
// health probe — and not before: a readmission seen while the endpoint
// still discards every frame was granted on evidence that predates the
// failure — (4) demonstrably put traffic back on it, and (5) leave both
// rails' declared stripe weights untouched: probation and readmission
// move a rail in and out of the stripe set, never its share — all
// asserted from telemetry snapshot deltas, the way an operator would see
// it.
func RunSelfHealSoak(t *testing.T, open OpenFabric) {
	t.Run("SelfHealSoak", func(t *testing.T) {
		good := open(t, 2)
		// KillAfter 6: the first couple of striped spans land on railB,
		// then it goes dark for 250ms with each loss surfacing 2ms after
		// the frame was accepted — past the span's counters-quiet check.
		chaotic := NewChaos(open(t, 2), ChaosConfig{
			Seed:          ChaosSeed(t),
			KillAfter:     6,
			KillDuration:  250 * time.Millisecond,
			KillLossDelay: 2 * time.Millisecond,
			KillRanks:     []int{0},
		})
		reg := telemetry.NewRegistry()
		w := mpi.NewWorld(mpi.Config{
			Nodes:          2,
			Mode:           core.Multithreaded,
			OffloadEager:   true,
			EnableBlocking: true,
			MX:             failoverParams("railA"),
			ExtraRails:     []nic.Params{failoverParams("railB")},
			Fabrics:        map[string]fabric.Fabric{"railA": good, "railB": chaotic},
			Metrics:        reg,
		})
		defer closeWorld(t, w)
		msg := patterned(192 << 10)
		// railB's data_sent/lost_frames the moment the engine reported the
		// readmission; the post-recovery delta is judged against these.
		var readmitSent, readmitLost uint64
		w.RunAll(func(p *mpi.Proc) {
			if p.Rank() == 1 {
				// Receiver: payload rounds until the sender's 1-byte stop
				// message (same tag, told apart by length).
				buf := make([]byte, len(msg))
				for {
					n, _ := p.Recv(0, 5, buf)
					if n == 1 {
						return
					}
					if n != len(msg) || !bytes.Equal(buf[:n], msg) {
						t.Errorf("soak payload corrupted (n=%d)", n)
					}
					p.Send(0, 6, []byte{1})
				}
			}
			// Sender: stream rendezvous rounds until the killed rail is
			// readmitted, then a handful more so the recovered rail
			// demonstrably carries fresh traffic.
			deadline := time.Now().Add(recvDeadline)
			readmitAt := -1
			var ack [1]byte
			for round := 0; readmitAt < 0 || round < readmitAt+8; round++ {
				if time.Now().After(deadline) {
					t.Error("killed rail was never readmitted within the soak deadline")
					break
				}
				r := p.Isend(1, 5, msg)
				if !p.Node.Eng.WaitAllTimeout(p.Th, recvDeadline, r.Req()) {
					t.Errorf("soak round %d: rendezvous send wedged", round)
					break
				}
				p.Recv(1, 6, ack[:])
				if readmitAt < 0 && p.Node.Eng.Stats().RailReadmits > 0 {
					if chaotic.InKillWindow(0) {
						t.Errorf("soak round %d: railB readmitted while its endpoint is still inside the kill window", round)
					}
					readmitAt = round
					snap := reg.Snapshot()
					readmitSent = snap.Value("node0.rail.railB.data_sent")
					readmitLost = snap.Value("node0.rail.railB.lost_frames")
				}
				p.Compute(2 * time.Millisecond)
			}
			p.Send(1, 5, []byte{0}) // stop
		})
		snap := reg.Snapshot()
		if re := snap.Value("node0.engine.rail_readmits"); re == 0 {
			t.Fatal("node0.engine.rail_readmits is 0 after the soak")
		}
		sentAfter := snap.Value("node0.rail.railB.data_sent")
		lostAfter := snap.Value("node0.rail.railB.lost_frames")
		if sentAfter <= readmitSent {
			t.Errorf("readmitted rail carried no traffic: railB data_sent %d -> %d", readmitSent, sentAfter)
		} else if sentAfter-readmitSent <= lostAfter-readmitLost {
			t.Errorf("readmitted rail only lost traffic: sent +%d, lost +%d",
				sentAfter-readmitSent, lostAfter-readmitLost)
		}
		for _, rail := range []string{"railA", "railB"} {
			want := uint64(failoverParams(rail).StripeWeight)
			if got := snap.Value("node0.rail." + rail + ".stripe_weight"); got != want {
				t.Errorf("node0.rail.%s.stripe_weight is %d after the soak, want the declared %d", rail, got, want)
			}
		}
		if hs := snap.Value("node0.rail.railB.health_state"); hs != 0 {
			t.Error("railB still reports probation in the final snapshot")
		}
	})
}
