package nic

import (
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/fabric/simfab"
	"pioman/internal/telemetry"
	"pioman/internal/testenv"
	"pioman/internal/wire"
)

// fastParams returns a rail with negligible costs for logic-only tests.
func fastParams() Params {
	return Params{
		Name:     "fast",
		Link:     wire.LinkParams{Latency: 0, BytesPerUS: 1e12},
		PIOMax:   128,
		EagerMax: 32 << 10,
		MTU:      32 << 10,
	}
}

// simDriver is node self's driver on the wire simulator fab, panicking
// on a rank outside it.
func simDriver(p Params, fab *wire.Fabric, self int) *Driver {
	ep, err := simfab.New(fab).Endpoint(self)
	if err != nil {
		panic(err)
	}
	return New(p, ep)
}

func pair(t *testing.T, p Params) (*Driver, *Driver) {
	t.Helper()
	fab := wire.NewFabric(2, p.Link)
	return simDriver(p, fab, 0), simDriver(p, fab, 1)
}

func pollUntil(t *testing.T, d *Driver, timeout time.Duration) *wire.Packet {
	t.Helper()
	deadline := time.Now().Add(timeout)
	pollOne := testenv.PollOne(d)
	for time.Now().Before(deadline) {
		if p := pollOne(); p != nil {
			return p
		}
	}
	t.Fatal("no packet within timeout")
	return nil
}

func TestEagerRoundtrip(t *testing.T) {
	a, b := pair(t, fastParams())
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	a.SendEager(Header{Src: 0, Dst: 1, Tag: 5, Seq: 1}, payload)
	p := pollUntil(t, b, time.Second)
	if p.Kind != wire.PktEager || p.Tag != 5 || len(p.Payload) != 1024 {
		t.Fatalf("bad packet %+v", p)
	}
	for i, v := range p.Payload {
		if v != byte(i) {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	st := a.Stats()
	if st.EagerSent != 1 || st.EagerBytes != 1024 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEagerAboveThresholdPanics(t *testing.T) {
	a, _ := pair(t, fastParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.SendEager(Header{Src: 0, Dst: 1}, make([]byte, 33<<10))
}

func TestPIOCountsSmallMessages(t *testing.T) {
	a, b := pair(t, fastParams())
	a.SendEager(Header{Src: 0, Dst: 1, Tag: 1}, make([]byte, 64))   // PIO
	a.SendEager(Header{Src: 0, Dst: 1, Tag: 2}, make([]byte, 4096)) // copy+DMA
	pollUntil(t, b, time.Second)
	pollUntil(t, b, time.Second)
	st := a.Stats()
	if st.PIOSent != 1 {
		t.Fatalf("PIOSent = %d, want 1", st.PIOSent)
	}
	if st.EagerSent != 2 {
		t.Fatalf("EagerSent = %d, want 2", st.EagerSent)
	}
}

func TestRendezvousPacketFlow(t *testing.T) {
	a, b := pair(t, fastParams())
	h := Header{Src: 0, Dst: 1, Tag: 9, MsgID: 77}
	a.SendRTS(h, 128<<10, 42, false)
	rts := pollUntil(t, b, time.Second)
	if rts.Kind != wire.PktRTS || rts.MsgID != 77 {
		t.Fatalf("bad RTS %+v", rts)
	}
	if n, s, ok := DecodeRTS(rts.Payload); n != 128<<10 || s != 42 || !ok {
		t.Fatalf("DecodeRTS = (%d, %d, %v), want (%d, 42, true)", n, s, ok, 128<<10)
	}
	// Every header-only control kind goes out through SendControl; only
	// the CTS counts in Stats.CTSSent.
	for _, kind := range []wire.PacketKind{wire.PktCTS, wire.PktDataAck, wire.PktPing, wire.PktPong} {
		b.SendControl(kind, Header{Src: 1, Dst: 0, Tag: 9, Seq: 5, MsgID: 77})
		got := pollUntil(t, a, time.Second)
		if got.Kind != kind || got.MsgID != 77 || got.Seq != 5 || len(got.Payload) != 0 {
			t.Fatalf("bad %v frame %+v", kind, got)
		}
	}
	data := make([]byte, 128<<10)
	a.SendData(h, 0, data)
	d := pollUntil(t, b, time.Second)
	if d.Kind != wire.PktData || len(d.Payload) != 128<<10 {
		t.Fatalf("bad DATA %+v kind=%v len=%d", d, d.Kind, len(d.Payload))
	}
	st := a.Stats()
	if st.RTSSent != 1 || st.DataSent != 1 || st.DataBytes != uint64(128<<10) {
		t.Fatalf("sender stats %+v", st)
	}
	if b.Stats().CTSSent != 1 {
		t.Fatalf("receiver stats %+v", b.Stats())
	}
}

func TestSubmitChargesCPU(t *testing.T) {
	p := fastParams()
	p.Cost.CopyBytesPerUS = 100 // 10 µs per KB
	p.Cost.SubmitOverhead = 0
	a, _ := pair(t, p)
	start := time.Now()
	a.SendEager(Header{Src: 0, Dst: 1}, make([]byte, 10_000)) // 100µs of copy
	if el := time.Since(start); el < 100*time.Microsecond {
		t.Fatalf("SendEager returned after %v, want >= 100µs of copy cost", el)
	}
}

func TestSendDataIsZeroCopy(t *testing.T) {
	p := fastParams()
	p.Cost.CopyBytesPerUS = 1 // copies would be catastrophically slow
	p.Cost.DMASetup = time.Microsecond
	a, _ := pair(t, p)
	start := time.Now()
	a.SendData(Header{Src: 0, Dst: 1}, 0, make([]byte, 1<<20))
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Fatalf("SendData took %v: it must not pay a copy cost", el)
	}
}

func TestRecvCopiesCharged(t *testing.T) {
	p := fastParams()
	p.RecvCopies = true
	p.Cost.CopyBytesPerUS = 100 // 10 µs per KB
	a, b := pair(t, p)
	a.SendEager(Header{Src: 0, Dst: 1}, make([]byte, 20_000))
	deadline := time.Now().Add(time.Second)
	pollOne := testenv.PollOne(b)
	for {
		start := time.Now()
		pk := pollOne()
		if pk != nil {
			if el := time.Since(start); el < 200*time.Microsecond {
				t.Fatalf("receiving PollBatch took %v, want >= 200µs copy", el)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no packet")
		}
	}
}

func TestBlockingPoll(t *testing.T) {
	a, b := pair(t, fastParams())
	go func() {
		time.Sleep(2 * time.Millisecond)
		a.SendEager(Header{Src: 0, Dst: 1, Tag: 3}, []byte("zz"))
	}()
	p := b.BlockingPoll(2 * time.Second)
	if p == nil || p.Tag != 3 {
		t.Fatalf("BlockingPoll = %+v", p)
	}
	if p := b.BlockingPoll(10 * time.Millisecond); p != nil {
		t.Fatalf("phantom packet %+v", p)
	}
}

func TestPresetsSane(t *testing.T) {
	mx, shm, tcp := MXParams(), SHMParams(), TCPParams()
	if mx.EagerMax != 32<<10 {
		t.Errorf("MX EagerMax = %d, want 32K (paper §2.3)", mx.EagerMax)
	}
	if mx.PIOMax != 128 {
		t.Errorf("MX PIOMax = %d, want 128 (paper §2.2)", mx.PIOMax)
	}
	if shm.Link.Latency >= mx.Link.Latency {
		t.Error("SHM latency should be below MX")
	}
	if !shm.RecvCopies {
		t.Error("SHM must copy on receive")
	}
	if tcp.Link.Latency <= mx.Link.Latency {
		t.Error("TCP latency should exceed MX")
	}
	if tcp.PIOMax != 0 {
		t.Error("TCP has no PIO path")
	}
}

func TestNewValidation(t *testing.T) {
	fab := wire.NewFabric(2, wire.MYRI10G())
	for _, bad := range []int{-1, 2, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(self=%d) did not panic", bad)
				}
			}()
			simDriver(MXParams(), fab, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(nil fabric) did not panic")
			}
		}()
		New(MXParams(), nil)
	}()
}

func TestDefaultMTU(t *testing.T) {
	fab := wire.NewFabric(1, wire.MYRI10G())
	p := Params{Name: "x", Link: wire.MYRI10G()}
	d := simDriver(p, fab, 0)
	if d.MTU() <= 0 {
		t.Fatalf("MTU = %d, want positive default", d.MTU())
	}
}

// TestDecodeRTS holds the one RTS decoder to the payload SendRTS
// writes: any length and session round-trip, and a payload that is not
// exactly an RTS, or that announces a negative length, is refused.
func TestDecodeRTS(t *testing.T) {
	f := func(n int64, s uint64, extra uint8) bool {
		b := binary.LittleEndian.AppendUint64(nil, uint64(n))
		b = binary.LittleEndian.AppendUint64(b, s)
		gotN, gotS, ok := DecodeRTS(b)
		if ok != (n >= 0) || ok && (gotN != int(n) || gotS != s) {
			return false
		}
		_, _, ok = DecodeRTS(append(b, make([]byte, extra%8+1)...))
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, b := range [][]byte{nil, {}, make([]byte, rtsBytes-1)} {
		if _, _, ok := DecodeRTS(b); ok {
			t.Errorf("DecodeRTS accepted a %d-byte payload", len(b))
		}
	}
}

// TestStripeWeights pins the preset weights the multirail strategy keys
// off: inter-node rails (simulated and real) declare bandwidth shares,
// the simulated intra-node SHM channel declares none (it must stay out
// of cross-node striping), and a caller can set a driver's live weight
// at runtime from a measured bandwidth.
func TestStripeWeights(t *testing.T) {
	for name, p := range map[string]Params{
		"mx": MXParams(), "tcp": TCPParams(), "real": RealParams(), "shm-real": ShmParams(),
	} {
		if p.StripeWeight <= 0 {
			t.Errorf("%s preset declares stripe weight %v, want positive", name, p.StripeWeight)
		}
	}
	if w := SHMParams().StripeWeight; w != 0 {
		t.Errorf("simulated SHM preset declares stripe weight %v, want 0 (intra-node only)", w)
	}
	fab := wire.NewFabric(1, wire.MYRI10G())
	d := simDriver(MXParams(), fab, 0)
	if d.StripeWeight() != MXParams().StripeWeight {
		t.Fatalf("driver weight %v, want the preset's %v", d.StripeWeight(), MXParams().StripeWeight)
	}
	d.SetStripeWeight(123.5)
	if d.StripeWeight() != 123.5 {
		t.Fatalf("set weight %v, want 123.5", d.StripeWeight())
	}
	d.SetStripeWeight(-1)
	if d.StripeWeight() != 0 {
		t.Fatalf("negative weight stored as %v, want clamped to 0", d.StripeWeight())
	}
}

// TestStripeWeightGaugeMilli pins the stripe_weight_milli gauge: the
// live weight in thousandths, rounded, so a fractional weight and a
// change inside one integer step both show.
func TestStripeWeightGaugeMilli(t *testing.T) {
	fab := wire.NewFabric(1, wire.MYRI10G())
	d := simDriver(MXParams(), fab, 0)
	reg := telemetry.NewRegistry()
	d.RegisterMetrics(reg, "node0.rail.mx")
	for _, c := range []struct {
		weight float64
		want   uint64
	}{{0.004, 4}, {1, 1000}, {1.9, 1900}, {0.0004, 0}, {0.0006, 1}} {
		d.SetStripeWeight(c.weight)
		if got := reg.Snapshot().Value("node0.rail.mx.stripe_weight_milli"); got != c.want {
			t.Errorf("weight %v: gauge reads %d, want %d", c.weight, got, c.want)
		}
	}
}

// TestLostFramesWithoutCounter: rails whose endpoint keeps no loss
// accounting (the simulator never loses frames) report zero rather than
// failing the capability probe.
func TestLostFramesWithoutCounter(t *testing.T) {
	fab := wire.NewFabric(1, wire.MYRI10G())
	if got := simDriver(MXParams(), fab, 0).LostFrames(); got != 0 {
		t.Fatalf("simulated rail reports %d lost frames", got)
	}
}

// TestConcurrentStatsSnapshot drives sends, polls, and batched drains
// from multiple goroutines while a reader loops Stats() and a metrics
// snapshot; under -race this proves every driver counter is read and
// written atomically (the satellite this PR's registry conversion must
// preserve).
func TestConcurrentStatsSnapshot(t *testing.T) {
	p := fastParams()
	fab := wire.NewFabric(2, p.Link)
	a, b := simDriver(p, fab, 0), simDriver(p, fab, 1)
	reg := telemetry.NewRegistry()
	a.RegisterMetrics(reg, "node0.rail.fast")
	b.RegisterMetrics(reg, "node1.rail.fast")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		seq := uint64(0)
		for {
			select {
			case <-done:
				return
			default:
				seq++
				a.SendEager(Header{Src: 0, Dst: 1, Tag: 7, Seq: seq, MsgID: seq}, []byte("x"))
			}
		}
	}()
	go func() {
		defer wg.Done()
		batch := make([]*wire.Packet, 8)
		for {
			select {
			case <-done:
				return
			default:
				if n := b.PollBatch(batch); n > 0 {
					for _, pk := range batch[:n] {
						fabric.ReleasePacket(pk)
					}
				}
			}
		}
	}()

	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		// Receiver first: a packet is counted sent before it is handed to
		// the wire, so a receive count can never exceed a send count read
		// after it. (Read the other way round, whatever is sent and drained
		// between the two snapshots breaks the inequality.)
		sb := b.Stats()
		sa := a.Stats()
		if sb.Recvs > sa.EagerSent {
			t.Errorf("receiver saw %d packets, sender sent %d", sb.Recvs, sa.EagerSent)
			break
		}
		snap := reg.Snapshot()
		if snap.Value("node0.rail.fast.eager_sent") > sa.EagerSent+1_000_000 {
			t.Error("registry wildly disagrees with Stats()")
			break
		}
	}
	close(done)
	wg.Wait()

	s := a.Stats()
	if s.EagerSent == 0 {
		t.Fatal("no traffic recorded")
	}
	snap := reg.Snapshot()
	if got := snap.Value("node0.rail.fast.eager_sent"); got != s.EagerSent {
		t.Fatalf("registry eager_sent = %d, Stats = %d (quiesced, must agree)", got, s.EagerSent)
	}
	if occ := snap.Get("node1.rail.fast.batch_occupancy"); occ == nil || occ.Hist.Count == 0 {
		t.Fatal("batch occupancy histogram recorded nothing")
	}
	if occ := snap.Get("node1.rail.fast.batch_occupancy").Hist; occ.Count != b.Stats().PollBatches {
		t.Fatalf("occupancy count %d != PollBatches %d", occ.Count, b.Stats().PollBatches)
	}
}
