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

// RunRTTRetune runs the latency-penalty regression against the backend:
// a bonded two-rail world where railB delivers every frame — no loss, no
// kill — but 2ms late each way via the Chaos latency knob. Sender-side
// goodput windows cannot see that (frames are accepted immediately; the
// delay is on delivery), so before the RTT-aware retune the two rails
// kept equal stripe share and every striped rendezvous tailed on the
// slow rail. The health-probe RTT must surface the asymmetry and the
// online retune must shed railB's share to under half of railA's.
//
// The RTT assertion is on the difference, not the ratio: both EWMAs are
// wall-clock round trips that contain the engine's poll latency, which
// under host load can dwarf the rails' own RTT and flatten any ratio,
// but it is common to both rails and cancels in railB − railA; the
// injected delay (2 × oneWay per round trip) does not.
func RunRTTRetune(t *testing.T, open OpenFabric) {
	t.Run("RTTRetune", func(t *testing.T) {
		const oneWay = 2 * time.Millisecond
		good := open(t, 2)
		slow := NewChaos(open(t, 2), ChaosConfig{
			Seed:    ChaosSeed(t),
			Latency: oneWay,
		})
		reg := telemetry.NewRegistry()
		w := mpi.NewWorld(mpi.Config{
			Nodes:             2,
			Mode:              core.Multithreaded,
			OffloadEager:      true,
			EnableBlocking:    true,
			AutoStripeWeights: true,
			MX:                failoverParams("railA"),
			ExtraRails:        []nic.Params{failoverParams("railB")},
			Fabrics:           map[string]fabric.Fabric{"railA": good, "railB": slow},
			Metrics:           reg,
		})
		defer closeWorld(t, w)
		msg := patterned(192 << 10)
		shed := func() bool {
			snap := reg.Snapshot()
			wa, wb := snap.Value("node0.rail.railA.stripe_weight"), snap.Value("node0.rail.railB.stripe_weight")
			return wa > 0 && wb < wa/2
		}
		w.RunAll(func(p *mpi.Proc) {
			if p.Rank() == 1 {
				buf := make([]byte, len(msg))
				for {
					n, _ := p.Recv(0, 5, buf)
					if n == 1 {
						return
					}
					if n != len(msg) || !bytes.Equal(buf[:n], msg) {
						t.Errorf("retune payload corrupted (n=%d)", n)
					}
					p.Send(0, 6, []byte{1})
				}
			}
			// Sender: striped rendezvous rounds until the retune has
			// demonstrably shed the slow rail's share (plus a few extra
			// rounds to prove traffic still flows), or the deadline calls
			// the regression failed.
			deadline := time.Now().Add(recvDeadline)
			shedAt := -1
			var ack [1]byte
			for round := 0; shedAt < 0 || round < shedAt+4; round++ {
				if time.Now().After(deadline) {
					t.Error("slow rail kept its stripe share: RTT penalty never shed railB below half of railA")
					break
				}
				r := p.Isend(1, 5, msg)
				if !p.Node.Eng.WaitAllTimeout(p.Th, recvDeadline, r.Req()) {
					t.Errorf("retune round %d: rendezvous send wedged", round)
					break
				}
				p.Recv(1, 6, ack[:])
				if shedAt < 0 && shed() {
					shedAt = round
				}
				p.Compute(2 * time.Millisecond)
			}
			p.Send(1, 5, []byte{0}) // stop
		})
		snap := reg.Snapshot()
		rttA, rttB := snap.Value("node0.rail.railA.rtt_ns"), snap.Value("node0.rail.railB.rtt_ns")
		if rttA == 0 || rttB == 0 {
			t.Errorf("health-probe RTT never measured: railA %dns, railB %dns", rttA, rttB)
		} else if rttB < rttA+uint64(oneWay) {
			t.Errorf("latency asymmetry not visible in probe RTT: railA %dns, railB %dns, want railB - railA >= %dns",
				rttA, rttB, int64(oneWay))
		}
		wa, wb := snap.Value("node0.rail.railA.stripe_weight"), snap.Value("node0.rail.railB.stripe_weight")
		if wa == 0 || wb >= wa/2 {
			t.Errorf("slow rail kept its share: railA weight %d, railB weight %d", wa, wb)
		}
		if rt := snap.Value("node0.engine.stripe_retunes"); rt == 0 {
			t.Error("node0.engine.stripe_retunes is 0: online weights never adjusted")
		}
	})
}
