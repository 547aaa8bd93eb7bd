package conformance

import (
	"strings"
	"testing"
	"time"

	"pioman/internal/fabric/simfab"
	"pioman/internal/wire"
)

// chaosTrace runs one fixed single-goroutine send schedule through a
// Chaos-wrapped simfab and returns the recorded decision trace.
func chaosTrace(t *testing.T, seed int64) []string {
	t.Helper()
	f := NewChaos(simfab.New(wire.NewFabric(2, wire.MYRI10G())), ChaosConfig{
		Seed:        seed,
		Drop:        0.3,
		Duplicate:   0.2,
		Corrupt:     0.1,
		Reorder:     0.2,
		RecordTrace: true,
	})
	defer f.Close()
	src := mustEp(t, f, 0)
	for i := 1; i <= 200; i++ {
		if err := src.Send(&wire.Packet{
			Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i),
			Payload: []byte{byte(i), byte(i >> 8)},
		}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Let deferred (reordered) deliveries land before tearing down.
	time.Sleep(20 * time.Millisecond)
	return f.Trace(0)
}

// TestChaosSeededDeterminism is the replay-workflow regression: the same
// seed over the same send schedule must produce the identical
// delivery/drop/duplication/corruption trace, twice — and a different
// seed must not, or the seed is not actually driving the decisions.
func TestChaosSeededDeterminism(t *testing.T) {
	a := chaosTrace(t, 42)
	b := chaosTrace(t, 42)
	if len(a) != 200 {
		t.Fatalf("trace recorded %d decisions for 200 sends", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at send %d:\nrun1 %s\nrun2 %s", i, a[i], b[i])
		}
	}
	// The fault model actually fired: a trace of all-pass decisions
	// would make determinism vacuous.
	joined := strings.Join(a, "\n")
	for _, decision := range []string{"drop=true", "dup=true", "corrupt=true", "reorder=true"} {
		if !strings.Contains(joined, decision) {
			t.Errorf("seed 42 trace never decided %s across 200 sends", decision)
		}
	}
	c := chaosTrace(t, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical traces: the seed is not driving the fault model")
	}
}

// TestChaosTotalDrop pins the drop-everything harness of the
// rail-failure cases: Chaos with Drop=1 accepts every frame, delivers
// none, counts all.
func TestChaosTotalDrop(t *testing.T) {
	f := NewChaos(simfab.New(wire.NewFabric(2, wire.MYRI10G())), ChaosConfig{Drop: 1})
	defer f.Close()
	src, dst := mustEp(t, f, 0), mustEp(t, f, 1)
	const n = 50
	for i := 1; i <= n; i++ {
		if err := src.Send(&wire.Packet{
			Kind: wire.PktEager, Src: 0, Dst: 1, Seq: uint64(i), Payload: []byte{1},
		}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if p := dst.BlockingRecv(50 * time.Millisecond); p != nil {
		t.Fatalf("drop-everything fabric delivered %+v", p)
	}
	if lost := src.(interface{ LostFrames() uint64 }).LostFrames(); lost != n {
		t.Fatalf("LostFrames = %d, want %d", lost, n)
	}
}
