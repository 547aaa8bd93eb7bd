package wire

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fastLink returns link params with negligible costs so tests that care
// about ordering, not timing, run instantly.
func fastLink() LinkParams {
	return LinkParams{Latency: 0, BytesPerUS: 1e12}
}

func TestSerializeCost(t *testing.T) {
	lp := MYRI10G()
	if got := lp.SerializeCost(1250); got != time.Microsecond {
		t.Fatalf("SerializeCost(1250) = %v, want 1µs", got)
	}
	if lp.SerializeCost(0) != 0 || lp.SerializeCost(-4) != 0 {
		t.Fatal("non-positive sizes must cost nothing")
	}
	if (LinkParams{}).SerializeCost(100) != 0 {
		t.Fatal("zero-bandwidth params must not divide by zero")
	}
}

func TestSendPollRoundtrip(t *testing.T) {
	f := NewFabric(2, fastLink())
	payload := []byte("hello fabric")
	f.Send(&Packet{Kind: PktEager, Src: 0, Dst: 1, Tag: 3, Payload: payload})
	deadline := time.Now().Add(time.Second)
	var p *Packet
	for p == nil && time.Now().Before(deadline) {
		p = f.Poll(1)
	}
	if p == nil {
		t.Fatal("packet never arrived")
	}
	if string(p.Payload) != "hello fabric" || p.Tag != 3 || p.Src != 0 {
		t.Fatalf("wrong packet: %+v", p)
	}
	if f.Poll(1) != nil {
		t.Fatal("second Poll returned a phantom packet")
	}
}

func TestLatencyIsHonored(t *testing.T) {
	lat := 500 * time.Microsecond
	f := NewFabric(2, LinkParams{Latency: lat, BytesPerUS: 1e12})
	start := time.Now()
	f.Send(&Packet{Src: 0, Dst: 1, Payload: []byte{1}})
	if p := f.Poll(1); p != nil {
		t.Fatal("packet visible before latency elapsed")
	}
	var p *Packet
	for p == nil {
		p = f.Poll(1)
		if time.Since(start) > time.Second {
			t.Fatal("packet never arrived")
		}
	}
	if el := time.Since(start); el < lat {
		t.Fatalf("packet observed after %v, want >= %v", el, lat)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1 MB at 1000 B/µs = 1000µs serialization.
	f := NewFabric(2, LinkParams{Latency: 0, BytesPerUS: 1000})
	start := time.Now()
	f.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 1_000_000)})
	var p *Packet
	for p == nil {
		p = f.Poll(1)
		if time.Since(start) > 5*time.Second {
			t.Fatal("packet never arrived")
		}
	}
	if el := time.Since(start); el < time.Millisecond {
		t.Fatalf("1MB arrived after %v, want >= 1ms of serialization", el)
	}
}

func TestLinkSerializationQueues(t *testing.T) {
	// Two 500KB packets back to back on a 1000B/µs link: the second must
	// arrive >= 1ms after the first send (it queues behind the first).
	f := NewFabric(2, LinkParams{Latency: 0, BytesPerUS: 1000})
	f.Send(&Packet{Src: 0, Dst: 1, Seq: 1, Payload: make([]byte, 500_000)})
	f.Send(&Packet{Src: 0, Dst: 1, Seq: 2, Payload: make([]byte, 500_000)})
	at1, ok := f.PendingAt(1)
	if !ok {
		t.Fatal("no pending packet")
	}
	// Drain both and check the second's arrival stamp.
	var p1, p2 *Packet
	deadline := time.Now().Add(5 * time.Second)
	for p2 == nil && time.Now().Before(deadline) {
		p := f.Poll(1)
		if p == nil {
			continue
		}
		if p1 == nil {
			p1 = p
		} else {
			p2 = p
		}
	}
	if p2 == nil {
		t.Fatal("packets never arrived")
	}
	if p1.Seq != 1 || p2.Seq != 2 {
		t.Fatalf("FIFO violated: got %d then %d", p1.Seq, p2.Seq)
	}
	// The second packet queues behind the first: its arrival is one full
	// serialization (500µs) after the first packet's arrival.
	if gap := p2.ArriveAt().Sub(at1); gap < 450*time.Microsecond {
		t.Fatalf("second packet arrival gap %v, want ~500µs (serialization)", gap)
	}
}

func TestPerLinkFIFOProperty(t *testing.T) {
	f := NewFabric(2, fastLink())
	const n = 200
	for i := 1; i <= n; i++ {
		f.Send(&Packet{Src: 0, Dst: 1, Seq: uint64(i), Payload: []byte{byte(i)}})
	}
	last := uint64(0)
	got := 0
	deadline := time.Now().Add(2 * time.Second)
	for got < n && time.Now().Before(deadline) {
		p := f.Poll(1)
		if p == nil {
			continue
		}
		if p.Seq <= last {
			t.Fatalf("per-link FIFO violated: %d after %d", p.Seq, last)
		}
		last = p.Seq
		got++
	}
	if got != n {
		t.Fatalf("received %d/%d packets", got, n)
	}
}

func TestSelfSendLoopback(t *testing.T) {
	f := NewFabric(1, MYRI10G())
	f.Send(&Packet{Src: 0, Dst: 0, Payload: []byte("self")})
	p := f.Poll(0)
	if p == nil || string(p.Payload) != "self" {
		t.Fatalf("loopback failed: %+v", p)
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFabric(2, fastLink()).Send(&Packet{Src: 0, Dst: 5})
}

func TestNewFabricZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFabric(0, fastLink())
}

func TestBlockingRecv(t *testing.T) {
	f := NewFabric(2, LinkParams{Latency: 200 * time.Microsecond, BytesPerUS: 1e12})
	go func() {
		time.Sleep(time.Millisecond)
		f.Send(&Packet{Src: 0, Dst: 1, Payload: []byte("wake")})
	}()
	p := f.BlockingRecv(1, 2*time.Second)
	if p == nil || string(p.Payload) != "wake" {
		t.Fatalf("BlockingRecv = %+v", p)
	}
}

func TestBlockingRecvTimeout(t *testing.T) {
	f := NewFabric(2, fastLink())
	start := time.Now()
	if p := f.BlockingRecv(1, 20*time.Millisecond); p != nil {
		t.Fatalf("got phantom packet %+v", p)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("returned after %v, before timeout", el)
	}
}

func TestBlockingRecvClose(t *testing.T) {
	f := NewFabric(2, fastLink())
	done := make(chan *Packet, 1)
	go func() { done <- f.BlockingRecv(1, 10*time.Second) }()
	time.Sleep(5 * time.Millisecond)
	f.Close()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("got packet %+v after close", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BlockingRecv did not wake on Close")
	}
}

func TestBlockingRecvAlreadyArrived(t *testing.T) {
	f := NewFabric(2, fastLink())
	f.Send(&Packet{Src: 0, Dst: 1, Payload: []byte("x")})
	time.Sleep(time.Millisecond)
	start := time.Now()
	if p := f.BlockingRecv(1, time.Second); p == nil {
		t.Fatal("no packet")
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("BlockingRecv on ready packet took %v", el)
	}
}

func TestWireLenDefaultsToPayload(t *testing.T) {
	f := NewFabric(2, fastLink())
	p := &Packet{Src: 0, Dst: 1, Payload: make([]byte, 77)}
	f.Send(p)
	if p.WireLen != 77 {
		t.Fatalf("WireLen = %d, want 77", p.WireLen)
	}
}

func TestHeaderOnlyPacket(t *testing.T) {
	f := NewFabric(2, fastLink())
	f.Send(&Packet{Kind: PktRTS, Src: 0, Dst: 1, WireLen: 32})
	deadline := time.Now().Add(time.Second)
	var p *Packet
	for p == nil && time.Now().Before(deadline) {
		p = f.Poll(1)
	}
	if p == nil || p.Kind != PktRTS {
		t.Fatalf("RTS not delivered: %+v", p)
	}
}

func TestConcurrentSendersNoLossNoDup(t *testing.T) {
	const nodes = 4
	const perPair = 100
	f := NewFabric(nodes, fastLink())
	var wg sync.WaitGroup
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			wg.Add(1)
			go func(s, d int) {
				defer wg.Done()
				for i := 0; i < perPair; i++ {
					f.Send(&Packet{Src: s, Dst: d, Seq: uint64(i + 1), Payload: []byte{byte(s), byte(i)}})
				}
			}(s, d)
		}
	}
	wg.Wait()
	for d := 0; d < nodes; d++ {
		want := (nodes - 1) * perPair
		got := map[int]int{} // src -> count
		lastSeq := map[int]uint64{}
		deadline := time.Now().Add(5 * time.Second)
		total := 0
		for total < want && time.Now().Before(deadline) {
			p := f.Poll(d)
			if p == nil {
				continue
			}
			got[p.Src]++
			if p.Seq <= lastSeq[p.Src] {
				t.Fatalf("dst %d: out-of-order from src %d: %d after %d", d, p.Src, p.Seq, lastSeq[p.Src])
			}
			lastSeq[p.Src] = p.Seq
			total++
		}
		if total != want {
			t.Fatalf("dst %d received %d/%d", d, total, want)
		}
		for s, c := range got {
			if c != perPair {
				t.Fatalf("dst %d got %d pkts from %d, want %d", d, c, s, perPair)
			}
		}
	}
}

// Property: arrival time never precedes injection + latency + serialization
// of that packet alone; bulk (above-fragment) arrivals are monotone per
// link (small packets may legitimately overtake bulk by design).
func TestArrivalBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lp := LinkParams{Latency: 10 * time.Microsecond, BytesPerUS: 100, FragBytes: 256}
	f := NewFabric(2, lp)
	var prevBulk time.Time
	for i := 0; i < 100; i++ {
		n := rng.Intn(4096) + 1
		before := time.Now()
		p := &Packet{Src: 0, Dst: 1, Payload: make([]byte, n)}
		f.Send(p)
		minArrive := before.Add(lp.Latency).Add(lp.SerializeCost(n))
		if p.ArriveAt().Before(minArrive.Add(-time.Microsecond)) {
			t.Fatalf("packet %d arrives at %v, before physical minimum %v", i, p.ArriveAt(), minArrive)
		}
		if n > lp.FragBytes {
			if p.ArriveAt().Before(prevBulk) {
				t.Fatalf("bulk packet %d arrival precedes previous bulk on same link", i)
			}
			prevBulk = p.ArriveAt()
		}
	}
}

func TestSmallPacketInterleavesPastBulk(t *testing.T) {
	// A 1MB bulk transfer occupies the link for 1s of serialization; a
	// 32-byte control packet sent right after must arrive within one
	// fragment slot + latency, not behind the bulk.
	lp := LinkParams{Latency: 0, BytesPerUS: 1, FragBytes: 1024} // 1 B/µs: 1MB = ~1s
	f := NewFabric(2, lp)
	bulk := &Packet{Kind: PktData, Src: 0, Dst: 1, Payload: make([]byte, 1<<20)}
	f.Send(bulk)
	ctl := &Packet{Kind: PktRTS, Src: 0, Dst: 1, WireLen: 32}
	before := time.Now()
	f.Send(ctl)
	maxArrive := before.Add(lp.FragSlot()).Add(lp.SerializeCost(32)).Add(lp.Latency).Add(time.Millisecond)
	if ctl.ArriveAt().After(maxArrive) {
		t.Fatalf("control packet queued %v behind bulk, want <= one fragment slot (%v)",
			ctl.ArriveAt().Sub(before), lp.FragSlot())
	}
	if !bulk.ArriveAt().After(ctl.ArriveAt()) {
		t.Fatal("bulk should arrive after the interleaved control packet")
	}
}

func TestFragSlotDefaults(t *testing.T) {
	lp := LinkParams{BytesPerUS: 8192} // 8K/µs -> default frag = 1µs slot
	if got := lp.FragSlot(); got != time.Microsecond {
		t.Fatalf("FragSlot = %v, want 1µs", got)
	}
	lp.FragBytes = 4096
	if got := lp.FragSlot(); got != 500*time.Nanosecond {
		t.Fatalf("FragSlot = %v, want 500ns", got)
	}
}

func TestIdleLinkSmallPacketNoFragDelay(t *testing.T) {
	lp := LinkParams{Latency: 0, BytesPerUS: 1000, FragBytes: 8192}
	f := NewFabric(2, lp)
	p := &Packet{Src: 0, Dst: 1, Payload: make([]byte, 100)}
	before := time.Now()
	f.Send(p)
	// Idle link: no fragment queueing, just serialization.
	if d := p.ArriveAt().Sub(before); d > lp.SerializeCost(100)+time.Millisecond {
		t.Fatalf("idle-link small packet delayed %v", d)
	}
}

func TestPendingAtEmpty(t *testing.T) {
	f := NewFabric(2, fastLink())
	if _, ok := f.PendingAt(0); ok {
		t.Fatal("empty inbox reports pending")
	}
}

func TestPacketKindString(t *testing.T) {
	for k, want := range map[PacketKind]string{
		PktEager: "eager", PktRTS: "rts", PktCTS: "cts", PktData: "data", PktCtrl: "ctrl",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if PacketKind(99).String() != "pkt(99)" {
		t.Errorf("unknown kind = %q", PacketKind(99).String())
	}
}
