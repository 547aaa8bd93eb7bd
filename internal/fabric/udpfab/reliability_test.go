package udpfab

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"pioman/internal/telemetry"
	"pioman/internal/wire"
)

// silentPeer is a raw UDP socket posing as rank 1: it reads whatever the
// endpoint under test transmits and acknowledges nothing unless the test
// crafts a reply by hand — the harness for window and ack edge cases.
type silentPeer struct {
	t    *testing.T
	conn *net.UDPConn
}

func newSilentPeer(t *testing.T) *silentPeer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &silentPeer{t: t, conn: conn}
}

func (s *silentPeer) addr() string { return s.conn.LocalAddr().String() }

// read returns the next datagram the endpoint transmitted, with the
// sender's address, or nil on timeout.
func (s *silentPeer) read(timeout time.Duration) ([]byte, *net.UDPAddr) {
	s.t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, readBufBytes)
	n, from, err := s.conn.ReadFromUDP(buf)
	if err != nil {
		return nil, nil
	}
	return buf[:n], from
}

// counters registers the endpoint's sublayer metrics and returns a
// getter over live snapshots, so every assertion reads the same series a
// bonded world would expose under node<r>.rail.udp.*.
func counters(e *Endpoint) func(name string) uint64 {
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg, "node0.rail.udp")
	return func(name string) uint64 {
		return reg.Snapshot().Value("node0.rail.udp." + name)
	}
}

func sendSmall(t *testing.T, e *Endpoint, dst int, seq uint64) {
	t.Helper()
	if err := e.Send(&wire.Packet{
		Kind: wire.PktEager, Src: e.Self(), Dst: dst, Seq: seq,
		Payload: bytes.Repeat([]byte{byte(seq)}, 16),
	}); err != nil {
		t.Fatalf("send %d: %v", seq, err)
	}
}

// TestWindowFullSendBackpressure pins the bounded-window contract: sends
// beyond the in-flight window return promptly (Send never blocks),
// queue in FIFO overflow, and each tick the window_stalls counter — and
// frames the drain could not deliver are all accounted lost on Close.
func TestWindowFullSendBackpressure(t *testing.T) {
	peer := newSilentPeer(t)
	e, err := New(Config{
		Self: 0, Nodes: 2, Listen: "127.0.0.1:0",
		Peers:  map[int]string{1: peer.addr()},
		window: 4, rto: 30 * time.Millisecond, rtoMax: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	get := counters(e)
	const total = 10
	start := time.Now()
	for i := 1; i <= total; i++ {
		sendSmall(t, e, 1, uint64(i))
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("sends against a full window took %v: Send blocked", d)
	}
	if got := get("window_stalls"); got != total-4 {
		t.Fatalf("window_stalls = %d, want %d (window 4, %d sends)", got, total-4, total)
	}
	// Only the window's worth of distinct sequences ever hits the wire —
	// the overflow queue must not leak past the in-flight bound while no
	// acks arrive.
	seqs := make(map[uint64]bool)
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		b, _ := peer.read(50 * time.Millisecond)
		if b == nil {
			continue
		}
		var h dgHeader
		if parseDatagram(b, 1, 2, &h) && h.dtype == dgData {
			seqs[h.seq] = true
		}
	}
	if len(seqs) != 4 {
		t.Fatalf("%d distinct sequences on the wire, want exactly the window of 4", len(seqs))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if lost := e.LostFrames(); lost != total {
		t.Fatalf("LostFrames = %d after draining against a dead peer, want %d", lost, total)
	}
}

// TestAckOfUnsentSeqIgnored pins ack validation: an ack acknowledging a
// sequence this incarnation never sent (replay, corrupt peer) must be
// ignored and counted in bad_acks — trusting it would tear undelivered
// frames out of the window. A valid ack afterwards still retires the
// frame.
func TestAckOfUnsentSeqIgnored(t *testing.T) {
	peer := newSilentPeer(t)
	e, err := New(Config{
		Self: 0, Nodes: 2, Listen: "127.0.0.1:0",
		Peers: map[int]string{1: peer.addr()},
		rto:   20 * time.Millisecond, rtoMax: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	get := counters(e)
	sendSmall(t, e, 1, 1)
	b, _ := peer.read(time.Second)
	if b == nil {
		t.Fatal("endpoint transmitted nothing")
	}
	session := binary.LittleEndian.Uint64(b[8:16])

	// cumAck 99 acknowledges sequences never sent (nextSeq is 2).
	bogus := mkAck(t, 1, 7777, session, 99, 0)
	if _, err := peer.conn.WriteToUDP(bogus, e.Addr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return get("bad_acks") == 1 })
	if get("acks_recv") != 1 {
		t.Fatalf("acks_recv = %d, want 1", get("acks_recv"))
	}
	// The frame must still be in flight: retransmission continues.
	base := get("retransmits")
	waitFor(t, 2*time.Second, func() bool { return get("retransmits") > base })

	// A genuine cumulative ack retires it and the window drains clean.
	good := mkAck(t, 1, 7777, session, 1, 0)
	if _, err := peer.conn.WriteToUDP(good, e.Addr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return get("acks_recv") >= 2 })
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if lost := e.LostFrames(); lost != 0 {
		t.Fatalf("LostFrames = %d after a valid ack, want 0", lost)
	}
	if get("bad_acks") != 1 {
		t.Fatalf("bad_acks = %d at exit, want exactly the one bogus ack", get("bad_acks"))
	}
}

// TestRetransmitStormBoundedByBackoffCap pins the backoff policy: a
// frame toward a dead peer is resent on an exponential schedule capped
// at RTOMax, so the observed retransmit count over a fixed horizon is
// bounded well below the tick rate.
func TestRetransmitStormBoundedByBackoffCap(t *testing.T) {
	peer := newSilentPeer(t)
	e, err := New(Config{
		Self: 0, Nodes: 2, Listen: "127.0.0.1:0",
		Peers: map[int]string{1: peer.addr()},
		rto:   10 * time.Millisecond, rtoMax: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	get := counters(e)
	sendSmall(t, e, 1, 1)
	const horizon = 600 * time.Millisecond
	time.Sleep(horizon)
	got := get("retransmits")
	// Schedule: 10+20+40+40+... — at most ~17 resends fit in 600ms, vs
	// ~120 if every 5ms tick resent. Generous slack for a loaded box.
	if got > 25 {
		t.Fatalf("%d retransmits in %v: backoff cap not bounding the storm", got, horizon)
	}
	if got < 3 {
		t.Fatalf("%d retransmits in %v: the timer is not retransmitting", got, horizon)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.LostFrames() != 1 {
		t.Fatalf("LostFrames = %d, want the one undeliverable frame", e.LostFrames())
	}
}

// TestReceiverRestartMidWindow pins the restart story end to end: a
// receiver dies with the sender's window half in flight, a fresh
// incarnation comes up on a new port, SetPeerAddr re-routes the window,
// and retransmission delivers the outstanding frames to the new receiver
// exactly once — nothing lost, nothing duplicated, counters visible.
func TestReceiverRestartMidWindow(t *testing.T) {
	a, err := New(Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0",
		rto: 20 * time.Millisecond, rtoMax: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	getA := counters(a)
	b1, err := New(Config{Self: 1, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeerAddr(1, b1.Addr().String())
	b1.SetPeerAddr(0, a.Addr().String())

	// Phase 1: frames 1..5 delivered and acked through the first
	// incarnation.
	for i := 1; i <= 5; i++ {
		sendSmall(t, a, 1, uint64(i))
	}
	for i := 0; i < 5; i++ {
		if p := b1.BlockingRecv(5 * time.Second); p == nil {
			t.Fatalf("first incarnation lost frame %d", i+1)
		}
	}

	// Phase 2: the receiver dies; frames 6..8 pile up in the window and
	// start retransmitting into the void.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 8; i++ {
		sendSmall(t, a, 1, uint64(i))
	}
	base := getA("retransmits")
	waitFor(t, 3*time.Second, func() bool { return getA("retransmits") > base })

	// Phase 3: a fresh incarnation on a fresh port; SetPeerAddr is the
	// out-of-band restart signal and the in-flight window must re-route.
	b2, err := New(Config{Self: 1, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.SetPeerAddr(0, a.Addr().String())
	a.SetPeerAddr(1, b2.Addr().String())

	// Drain until the retransmit machinery goes quiet (the 300ms lull is
	// past the backoff cap, so an unacked frame would have reappeared).
	// Frames 6..8 must arrive; frames 1..5 may legally reappear once —
	// only if the first incarnation died before its acks flushed, in
	// which case the transport never saw them delivered — but nothing is
	// ever handed to the new incarnation twice.
	got := make(map[uint64]int)
	for {
		p := b2.BlockingRecv(300 * time.Millisecond)
		if p == nil {
			if got[6] > 0 && got[7] > 0 && got[8] > 0 {
				break
			}
			t.Fatalf("restarted receiver stalled holding %v", got)
		}
		if p.Seq < 1 || p.Seq > 8 {
			t.Fatalf("restarted receiver got unknown frame %d", p.Seq)
		}
		got[p.Seq]++
	}
	for s, n := range got {
		if n != 1 {
			t.Fatalf("frame %d delivered %d times to one incarnation", s, n)
		}
	}
	// The sender's window drains against the new incarnation: Close has
	// nothing left to abandon.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if lost := a.LostFrames(); lost != 0 {
		t.Fatalf("LostFrames = %d after restart recovery, want 0", lost)
	}
}

// flightSize reports frames still unacknowledged (in flight or queued)
// toward rank.
func flightSize(e *Endpoint, rank int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ps := e.peers[rank]; ps != nil {
		return len(ps.flight) + len(ps.pending)
	}
	return 0
}

// drainAll discards everything rank receives until its endpoint closes —
// the RTO tests only care about the sender's estimator.
func drainAll(e *Endpoint) {
	go func() {
		for e.BlockingRecv(time.Second) != nil {
		}
	}()
}

// TestAdaptiveRTOLowRTT pins the fast half of the adaptive timeout: on a
// loopback-fast path, measured ack round trips must pull the retransmit
// timeout well below the fixed 20ms base — down to the adaptive floor —
// so a lost datagram is recovered in milliseconds instead of sitting out
// the base timeout.
func TestAdaptiveRTOLowRTT(t *testing.T) {
	a, err := New(Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Self: 1, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeerAddr(1, b.Addr().String())
	b.SetPeerAddr(0, a.Addr().String())
	drainAll(b)

	if got := a.peerRTO(1); got != defaultRTO {
		t.Fatalf("PeerRTO before any traffic = %v, want the %v base", got, defaultRTO)
	}
	// Bursts of ackEvery frames force prompt acks; each ack completes the
	// one outstanding round-trip sample and the next burst arms a fresh
	// one. Loopback samples are microseconds, so a handful suffice.
	deadline := time.Now().Add(10 * time.Second)
	for a.peerRTO(1) >= 10*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("PeerRTO stuck at %v: loopback round trips never adapted it below 10ms", a.peerRTO(1))
		}
		for i := 0; i < ackEvery; i++ {
			sendSmall(t, a, 1, uint64(i))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := a.peerRTO(1); got < minAdaptiveRTO {
		t.Fatalf("PeerRTO = %v, below the %v adaptive floor", got, minAdaptiveRTO)
	}
}

// TestAdaptiveRTOHighRTTNoSpuriousRetransmit pins the slow half: with
// ~50ms of injected symmetric latency the true round trip exceeds the
// 20ms base timeout, so a fixed-RTO sender would retransmit every frame
// whose ack is merely still in flight. After warmup traffic has fed the
// estimator, a settled stream must complete with zero further
// retransmits.
func TestAdaptiveRTOHighRTTNoSpuriousRetransmit(t *testing.T) {
	delay := &ChaosParams{Delay: 25 * time.Millisecond}
	a, err := New(Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0", chaos: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Self: 1, Nodes: 2, Listen: "127.0.0.1:0", chaos: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeerAddr(1, b.Addr().String())
	b.SetPeerAddr(0, a.Addr().String())
	drainAll(b)
	get := counters(a)

	// Warmup: the first frames necessarily retransmit (20ms base vs ~50ms
	// true RTT) until a sample lands; wait for the estimator to clear the
	// round trip.
	sendSmall(t, a, 1, 1)
	waitFor(t, 10*time.Second, func() bool { return a.peerRTO(1) > 50*time.Millisecond })
	waitFor(t, 10*time.Second, func() bool { return flightSize(a, 1) == 0 })

	base := get("retransmits")
	const n = 20
	for i := 2; i <= n+1; i++ {
		sendSmall(t, a, 1, uint64(i))
	}
	waitFor(t, 10*time.Second, func() bool { return flightSize(a, 1) == 0 })
	if got := get("retransmits"); got != base {
		t.Fatalf("%d spurious retransmits on a settled high-RTT stream (timeout %v)", got-base, a.peerRTO(1))
	}
}

// TestAIMDWindowLossBurstRecovery pins the congestion response of the
// retransmit window: a loss burst (the peer goes silent) halves the
// live window once per burst — repeat retransmits of the same fenced
// frames cost nothing more — down to the 16-frame floor, and clean ack
// rounds grow it back one frame per fully retired window, with the
// trajectory visible in the window_size gauge.
func TestAIMDWindowLossBurstRecovery(t *testing.T) {
	peer := newSilentPeer(t)
	e, err := New(Config{
		Self: 0, Nodes: 2, Listen: "127.0.0.1:0",
		Peers:  map[int]string{1: peer.addr()},
		window: 64, rto: 30 * time.Millisecond, rtoMax: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	get := counters(e)
	if w := e.peerWindow(1); w != 64 {
		t.Fatalf("fresh peer window = %d, want the configured 64", w)
	}
	if g := get("window_size"); g != 64 {
		t.Fatalf("window_size gauge = %d before any loss, want 64", g)
	}

	// Burst 1: frame 1 goes unacked; its first retransmit is fresh loss
	// evidence and halves the window exactly once no matter how many
	// times the frame is resent afterwards.
	sendSmall(t, e, 1, 1)
	b, _ := peer.read(time.Second)
	if b == nil {
		t.Fatal("endpoint transmitted nothing")
	}
	session := binary.LittleEndian.Uint64(b[8:16])
	waitFor(t, 2*time.Second, func() bool { return e.peerWindow(1) == 32 })
	base := get("retransmits")
	waitFor(t, 2*time.Second, func() bool { return get("retransmits") > base+1 })
	if w := e.peerWindow(1); w != 32 {
		t.Fatalf("repeat retransmits of one burst re-halved the window: %d, want 32", w)
	}

	// Bursts 2 and 3: each frame first sent after a cut that then goes
	// unacked is a new loss event — 32 halves to 16, and the floor holds
	// from there.
	sendSmall(t, e, 1, 2)
	waitFor(t, 2*time.Second, func() bool { return e.peerWindow(1) == 16 })
	sendSmall(t, e, 1, 3)
	base = get("retransmits")
	waitFor(t, 2*time.Second, func() bool { return get("retransmits") > base+2 })
	if w := e.peerWindow(1); w != 16 {
		t.Fatalf("window fell through the floor: %d, want 16", w)
	}

	// Recovery: the peer acks the burst, then a full clean window of
	// retired frames earns one frame of additive growth.
	ack := mkAck(t, 1, 7777, session, 3, 0)
	if _, err := peer.conn.WriteToUDP(ack, e.Addr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return flightSize(e, 1) == 0 })
	for s := uint64(4); s < 20; s++ {
		sendSmall(t, e, 1, s)
	}
	ack = mkAck(t, 1, 7777, session, 19, 0)
	if _, err := peer.conn.WriteToUDP(ack, e.Addr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return e.peerWindow(1) == 17 })
	if g := get("window_size"); g != 17 {
		t.Fatalf("window_size gauge = %d after regrowth, want 17", g)
	}
}

// waitFor polls cond at the tick cadence until it holds or the deadline
// fails the test.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(tickPeriod)
	}
}

// peerRTO reports the retransmit timeout a fresh frame toward rank
// would start with right now — the configured base until ack round
// trips have been measured, the adaptive estimate afterwards: the
// white-box surface of the adaptive-RTO regression tests.
func (e *Endpoint) peerRTO(rank int) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rank < 0 || rank >= e.nodes || e.peers[rank] == nil {
		return e.rto
	}
	return e.rtoLocked(e.peers[rank])
}

// peerWindow reports the live AIMD send window toward rank — the
// configured bound until loss cut it, the regrown value as clean acks
// earn frames back: the white-box surface of the loss-burst recovery
// tests.
func (e *Endpoint) peerWindow(rank int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rank < 0 || rank >= e.nodes || e.peers[rank] == nil {
		return e.window
	}
	return e.peers[rank].cwnd
}
