package fabric_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"pioman/internal/fabric"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/nic"
	"pioman/internal/telemetry"
	"pioman/internal/testenv"
	"pioman/internal/wire"
)

// Allocation-regression tests for the zero-allocation hot path: the
// steady-state eager path — encode, carry, decode, release — must stay
// at ≤2 allocations per operation, and in practice at zero once the
// pools are warm. A regression here silently re-taxes every packet the
// engine moves, which is exactly the engine overhead the paper's design
// exists to avoid, so the budget is asserted in-tree.

// maxSteadyStateAllocs is the budget the hot paths must stay within.
const maxSteadyStateAllocs = 2

// skipUnderRace skips alloc-count assertions under the race detector,
// whose instrumentation allocates on its own schedule.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
}

// TestCodecRoundTripAllocs pins the codec itself: appending a frame into
// a reused buffer and decoding it through the pools, releasing the
// result, allocates nothing in steady state.
func TestCodecRoundTripAllocs(t *testing.T) {
	skipUnderRace(t)
	payload := make([]byte, 4<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	p := &wire.Packet{
		Kind: wire.PktEager, Src: 0, Dst: 1, Tag: 7, Seq: 1,
		Payload: payload,
	}
	enc := make([]byte, 0, fabric.EncodedSize(p))
	var decodeErr error
	roundTrip := func() {
		enc = fabric.AppendPacket(enc[:0], p)
		q, err := fabric.DecodePacketPooled(enc)
		if err != nil {
			decodeErr = err
			return
		}
		fabric.ReleasePacket(q)
	}
	roundTrip() // warm the pools outside the measured window
	allocs := testing.AllocsPerRun(200, roundTrip)
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if allocs > maxSteadyStateAllocs {
		t.Errorf("codec 4KiB encode/decode round trip allocates %.1f/op, budget %d", allocs, maxSteadyStateAllocs)
	}
}

// TestPollBatchDrainAllocs pins the batched receive path: flooding a
// burst of small frames across real shared-memory rings and draining
// them through PollBatch into a reused batch buffer — the engine's
// steady-state receive shape — must stay within the same budget as the
// per-frame path. The batch buffer is allocated once and never grown by
// the drain; a regression here re-taxes exactly the message-storm
// traffic batching exists to cheapen.
func TestPollBatchDrainAllocs(t *testing.T) {
	skipUnderRace(t)
	f, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ep0, err := f.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := f.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i*5 + 3)
	}
	const burst = 16
	batch := make([]*wire.Packet, burst)
	var seq uint64
	var fail string
	burstDrain := func() {
		for i := 0; i < burst; i++ {
			seq++
			out := fabric.GetPacket()
			out.Kind, out.Src, out.Dst, out.Seq, out.Payload = wire.PktEager, 0, 1, seq, payload
			if err := ep0.Send(out); err != nil {
				fail = "send: " + err.Error()
				return
			}
			fabric.ReleasePacket(out) // shmfab captures sends
		}
		got := 0
		for got < burst {
			n := ep1.PollBatch(batch[:burst-got])
			for _, p := range batch[:n] {
				if !bytes.Equal(p.Payload, payload) {
					fail = "payload corrupted in batched drain"
					return
				}
				fabric.ReleasePacket(p)
			}
			got += n
		}
	}
	for i := 0; i < 10; i++ { // warm rings, scratch buffers and pools
		burstDrain()
	}
	allocs := testing.AllocsPerRun(200, burstDrain)
	if fail != "" {
		t.Fatal(fail)
	}
	// The budget is per burst of 16 frames, not per frame: the batched
	// path must amortize, not just match, the per-frame ceiling.
	if allocs > maxSteadyStateAllocs {
		t.Errorf("16-frame PollBatch burst drain allocates %.1f/op, budget %d", allocs, maxSteadyStateAllocs)
	}
}

// TestEagerRoundTripAllocs pins the full transport hot path: a 4 KiB
// eager packet crossing real shared-memory rings and coming back —
// serialize, ring slots, pooled decode, echo, release — within the
// steady-state allocation budget. This is the per-message engine
// overhead every eager exchange pays, asserted end to end at the
// fabric layer.
func TestEagerRoundTripAllocs(t *testing.T) {
	skipUnderRace(t)
	f, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ep0, err := f.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := f.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4<<10)
	for i := range payload {
		payload[i] = byte(i*7 + 13)
	}
	var seq uint64
	var fail string
	poll0, poll1 := testenv.PollOne(ep0), testenv.PollOne(ep1)
	roundTrip := func() {
		seq++
		out := fabric.GetPacket()
		out.Kind, out.Src, out.Dst, out.Seq, out.Payload = wire.PktEager, 0, 1, seq, payload
		if err := ep0.Send(out); err != nil {
			fail = "send: " + err.Error()
			return
		}
		fabric.ReleasePacket(out) // shmfab captures sends
		var in *wire.Packet
		for in == nil {
			in = poll1()
		}
		if !bytes.Equal(in.Payload, payload) {
			fail = "ping payload corrupted"
			return
		}
		// Echo it straight back out of the pooled inbound buffer.
		back := fabric.GetPacket()
		back.Kind, back.Src, back.Dst, back.Seq, back.Payload = wire.PktEager, 1, 0, seq, in.Payload
		if err := ep1.Send(back); err != nil {
			fail = "echo: " + err.Error()
			return
		}
		fabric.ReleasePacket(back)
		fabric.ReleasePacket(in)
		var pong *wire.Packet
		for pong == nil {
			pong = poll0()
		}
		if !bytes.Equal(pong.Payload, payload) {
			fail = "pong payload corrupted"
			return
		}
		fabric.ReleasePacket(pong)
	}
	for i := 0; i < 10; i++ { // warm rings, scratch buffers and pools
		roundTrip()
	}
	allocs := testing.AllocsPerRun(200, roundTrip)
	if fail != "" {
		t.Fatal(fail)
	}
	if allocs > maxSteadyStateAllocs {
		t.Errorf("4KiB eager round trip allocates %.1f/op, budget %d", allocs, maxSteadyStateAllocs)
	}
}

// TestLargeFrameAllocs pins the transports' large-frame send path: a
// rendezvous-sized frame sent, drained through PollBatch and released
// must cost no allocation once the buffer pool is warm — the outbound
// batch (tcpfab), the direct-path encoding and the slot reassembly
// (shmfab) are all pool borrows. A stream that grew a fresh buffer per
// frame pays several mallocs and a page-fault storm every time, on
// exactly the bytes-bound traffic rendezvous exists for.
func TestLargeFrameAllocs(t *testing.T) {
	skipUnderRace(t)
	fabrics := []struct {
		name string
		open func(t *testing.T) fabric.Fabric
	}{
		{"tcpfab", func(t *testing.T) fabric.Fabric {
			f, err := tcpfab.NewLocal(2)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
		{"shmfab", func(t *testing.T) fabric.Fabric {
			f, err := shmfab.NewLocal(2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
	for _, fb := range fabrics {
		for _, size := range []int{256 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("%s/%dKiB", fb.name, size>>10), func(t *testing.T) {
				f := fb.open(t)
				defer f.Close()
				ep0, _ := f.Endpoint(0)
				ep1, _ := f.Endpoint(1)
				payload := make([]byte, size)
				for i := range payload {
					payload[i] = byte(i*11 + 5)
				}
				var seq uint64
				var fail string
				batch := make([]*wire.Packet, 1)
				oneWay := func() {
					seq++
					out := fabric.GetPacket()
					out.Kind, out.Src, out.Dst, out.Seq, out.Payload = wire.PktData, 0, 1, seq, payload
					if err := ep0.Send(out); err != nil {
						fail = "send: " + err.Error()
						return
					}
					fabric.ReleasePacket(out) // both backends capture sends
					for ep1.PollBatch(batch) == 0 {
						runtime.Gosched() // tcpfab's poller delivers
					}
					if in := batch[0]; in.Seq != seq || !bytes.Equal(in.Payload, payload) {
						fail = "frame corrupted"
					}
					fabric.ReleasePacket(batch[0])
					batch[0] = nil
				}
				for i := 0; i < 10; i++ { // warm the pools and the streams
					oneWay()
				}
				allocs := testing.AllocsPerRun(50, oneWay)
				if fail != "" {
					t.Fatal(fail)
				}
				t.Logf("%.2f allocs/op", allocs)
				if allocs > maxSteadyStateAllocs {
					t.Errorf("%d KiB frame send/drain/release allocates %.1f/op, budget %d", size>>10, allocs, maxSteadyStateAllocs)
				}
			})
		}
	}
}

// TestMeteredDriverDrainAllocs pins the telemetry-on receive path at the
// driver layer: the same burst-and-drain shape as TestPollBatchDrainAllocs
// but through nic.Driver with a telemetry registry attached — every
// counter registered and the batch-occupancy histogram observing each
// drain. Metric recording is atomic adds on pre-registered handles, so
// the budget is unchanged from the unmetered path; a regression here
// means observability started taxing the hot path it exists to watch.
func TestMeteredDriverDrainAllocs(t *testing.T) {
	skipUnderRace(t)
	f, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ep0, err := f.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := f.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	send := nic.New(nic.ShmParams(), ep0)
	recv := nic.New(nic.ShmParams(), ep1)
	reg := telemetry.NewRegistry()
	send.RegisterMetrics(reg, "node0.rail.shm")
	recv.RegisterMetrics(reg, "node1.rail.shm")

	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i*3 + 1)
	}
	const burst = 16
	batch := make([]*wire.Packet, burst)
	var seq uint64
	burstDrain := func() {
		for i := 0; i < burst; i++ {
			seq++
			send.SendEager(nic.Header{Src: 0, Dst: 1, Tag: 7, Seq: seq}, payload)
		}
		got := 0
		for got < burst {
			n := recv.PollBatch(batch[:burst-got])
			for _, p := range batch[:n] {
				fabric.ReleasePacket(p)
			}
			got += n
		}
	}
	for i := 0; i < 10; i++ { // warm rings, scratch buffers and pools
		burstDrain()
	}
	allocs := testing.AllocsPerRun(200, burstDrain)
	if allocs > maxSteadyStateAllocs {
		t.Errorf("metered 16-frame driver drain allocates %.1f/op, budget %d", allocs, maxSteadyStateAllocs)
	}
	snap := reg.Snapshot()
	if occ := snap.Get("node1.rail.shm.batch_occupancy"); occ == nil || occ.Hist.Count == 0 {
		t.Fatal("occupancy histogram recorded nothing — metering detached, assertion vacuous")
	}
	if sent := snap.Value("node0.rail.shm.eager_sent"); sent == 0 {
		t.Fatal("eager_sent counter recorded nothing")
	}
}
