package udpfab

import (
	"bytes"
	"net/netip"
	"testing"

	"pioman/internal/fabric"
	"pioman/internal/telemetry"
	"pioman/internal/wire"
)

// mkData builds one sealed data datagram the filter must accept.
func mkData(t testing.TB, src int, session, seq, base uint64, payload []byte) []byte {
	t.Helper()
	p := &wire.Packet{
		Kind: wire.PktEager, Src: src, Dst: 0, Seq: seq,
		WireLen: len(payload), Payload: payload,
	}
	buf := make([]byte, dgHeaderBytes, dgHeaderBytes+fabric.EncodedSize(p))
	buf = fabric.AppendPacket(buf, p)
	h := dgHeader{dtype: dgData, src: src, session: session, seq: seq, base: base,
		flen: len(buf) - dgHeaderBytes}
	putHeader(buf, &h)
	sealDatagram(buf)
	return buf
}

// mkAck builds one sealed pure-ack datagram.
func mkAck(t testing.TB, src int, session, ackSession, cum, sack uint64) []byte {
	t.Helper()
	b := make([]byte, dgHeaderBytes)
	h := dgHeader{dtype: dgAck, src: src, session: session,
		ackSession: ackSession, cumAck: cum, sack: sack}
	putHeader(b, &h)
	sealDatagram(b)
	return b
}

func TestHeaderRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 100)
	b := mkData(t, 3, 0xDEADBEEF, 42, 40, payload)
	var h dgHeader
	if !parseDatagram(b, 0, 4, &h) {
		t.Fatal("valid data datagram rejected")
	}
	if h.dtype != dgData || h.src != 3 || h.session != 0xDEADBEEF ||
		h.seq != 42 || h.base != 40 || h.flen != len(b)-dgHeaderBytes {
		t.Fatalf("header fields mutated in round trip: %+v", h)
	}
	a := mkAck(t, 2, 7, 0xFEED, 9, 0b1011)
	if !parseDatagram(a, 0, 4, &h) {
		t.Fatal("valid ack datagram rejected")
	}
	if h.dtype != dgAck || h.src != 2 || h.ackSession != 0xFEED ||
		h.cumAck != 9 || h.sack != 0b1011 || h.flen != 0 {
		t.Fatalf("ack fields mutated in round trip: %+v", h)
	}
}

// flipBit returns a copy of b with one bit flipped and the checksum
// left stale — the transit-corruption shape.
func flipBit(b []byte, i int) []byte {
	cp := append([]byte(nil), b...)
	cp[i/8] ^= 1 << (i % 8)
	return cp
}

// reseal returns b with one mutation applied and the checksum restamped,
// so the case under test fails its targeted validation rather than the
// checksum.
func reseal(b []byte, mutate func([]byte)) []byte {
	cp := append([]byte(nil), b...)
	mutate(cp)
	sealDatagram(cp)
	return cp
}

// TestPacketFilterRejects pins the packet filter: every malformed shape
// a socket can hand us — truncated, corrupt, wrong version, oversize,
// alien — is rejected before any allocation, never parsed and never
// panicking.
func TestPacketFilterRejects(t *testing.T) {
	valid := mkData(t, 1, 99, 5, 5, bytes.Repeat([]byte{3}, 64))
	oversize := make([]byte, maxDatagramBytes+1)
	copy(oversize, valid)
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"below header size", valid[:dgHeaderBytes-1]},
		{"truncated mid frame", valid[:len(valid)-3]},
		{"oversize", oversize},
		{"alien magic", reseal(valid, func(b []byte) { b[0] ^= 0xFF })},
		{"wrong version", reseal(valid, func(b []byte) { b[4] = dgVersion + 1 })},
		{"unknown type", reseal(valid, func(b []byte) { b[5] = 3 })},
		{"src is self", reseal(valid, func(b []byte) { b[6], b[7] = 0, 0 })},
		{"src outside cluster", reseal(valid, func(b []byte) { b[6], b[7] = 9, 0 })},
		{"ack carrying frame bytes", reseal(valid, func(b []byte) { b[5] = dgAck })},
		{"frame length lies", reseal(valid, func(b []byte) { b[56]++ })},
		{"corrupt payload bit", flipBit(valid, (dgHeaderBytes+10)*8+3)},
		{"corrupt header bit", flipBit(valid, 20*8+4)}, // seq field, checksum stale
		{"header-only data", reseal(mkAck(t, 1, 99, 0, 0, 0), func(b []byte) { b[5] = dgData })},
	}
	var h dgHeader
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if parseDatagram(tc.b, 0, 2, &h) {
				t.Fatalf("filter accepted a %s datagram", tc.name)
			}
		})
	}
	if !parseDatagram(valid, 0, 2, &h) {
		t.Fatal("control: the unmutated datagram must pass")
	}
}

// TestPacketFilterZeroAlloc pins the filter's cost model: validating a
// datagram — accepted or rejected — allocates nothing.
func TestPacketFilterZeroAlloc(t *testing.T) {
	valid := mkData(t, 1, 99, 5, 5, bytes.Repeat([]byte{3}, 512))
	corrupt := append([]byte(nil), valid...)
	corrupt[dgHeaderBytes+7] ^= 1
	truncated := valid[:dgHeaderBytes+9]
	var h dgHeader
	allocs := testing.AllocsPerRun(1000, func() {
		if !parseDatagram(valid, 0, 2, &h) {
			t.Fatal("valid datagram rejected")
		}
		if parseDatagram(corrupt, 0, 2, &h) || parseDatagram(truncated, 0, 2, &h) {
			t.Fatal("malformed datagram accepted")
		}
	})
	if allocs != 0 {
		t.Fatalf("packet filter allocates %.1f times per datagram, want 0", allocs)
	}
}

// TestRejectedDatagramsCounted drives malformed datagrams through the
// endpoint's full receive path and asserts each one costs exactly a
// rejected_datagrams tick: no delivery, no panic, no state change.
func TestRejectedDatagramsCounted(t *testing.T) {
	e, err := New(Config{Self: 0, Nodes: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg, "node0.rail.udp")
	valid := mkData(t, 1, 99, 1, 1, bytes.Repeat([]byte{7}, 32))
	from := netip.MustParseAddrPort("127.0.0.1:9")

	bad := [][]byte{
		valid[:40],
		reseal(valid, func(b []byte) { b[4] = dgVersion + 1 }),
		func() []byte {
			cp := append([]byte(nil), valid...)
			cp[dgHeaderBytes+3] ^= 0x40 // corrupt checksum
			return cp
		}(),
		// Valid preamble sealed over a garbage codec frame: the filter
		// passes, the decoder must still reject without delivering.
		func() []byte {
			cp := make([]byte, dgHeaderBytes+fabric.HeaderScratchBytes)
			h := dgHeader{dtype: dgData, src: 1, session: 99, seq: 2, base: 1,
				flen: fabric.HeaderScratchBytes}
			putHeader(cp, &h)
			sealDatagram(cp)
			return cp
		}(),
	}
	for i, b := range bad {
		if p := e.acceptDatagram(b, from); p != nil {
			t.Fatalf("bad datagram %d was delivered: %+v", i, p)
		}
		if got := reg.Snapshot().Value("node0.rail.udp.rejected_datagrams"); got != uint64(i+1) {
			t.Fatalf("bad datagram %d: rejected_datagrams = %d, want %d", i, got, i+1)
		}
	}
	// The endpoint is still healthy: the valid datagram delivers.
	if p := e.acceptDatagram(valid, from); p == nil || len(p.Payload) != 32 || p.Src != 1 {
		t.Fatalf("valid datagram after rejections: %+v", p)
	}
	if got := reg.Snapshot().Value("node0.rail.udp.rejected_datagrams"); got != uint64(len(bad)) {
		t.Fatalf("valid delivery moved the reject counter to %d", got)
	}
}

// FuzzParseDatagram hammers the packet filter with arbitrary bytes: it
// must never panic, and anything it accepts must satisfy the wire
// format's own invariants.
func FuzzParseDatagram(f *testing.F) {
	f.Add([]byte(nil))
	valid := mkData(f, 1, 99, 5, 5, bytes.Repeat([]byte{3}, 64))
	f.Add(valid)
	f.Add(valid[:dgHeaderBytes])
	f.Add(valid[:len(valid)-1])
	f.Add(mkAck(f, 1, 99, 42, 7, 0xF0F0))
	f.Add(reseal(valid, func(b []byte) { b[5] = dgAck }))
	f.Add(bytes.Repeat([]byte{0x55}, 200))
	f.Fuzz(func(t *testing.T, b []byte) {
		var h dgHeader
		if !parseDatagram(b, 0, 4, &h) {
			return
		}
		if h.dtype != dgData && h.dtype != dgAck {
			t.Fatalf("filter accepted unknown type %d", h.dtype)
		}
		if h.src == 0 || h.src >= 4 {
			t.Fatalf("filter accepted src %d for self=0 nodes=4", h.src)
		}
		if h.flen != len(b)-dgHeaderBytes {
			t.Fatalf("filter accepted inconsistent flen %d for %d-byte datagram", h.flen, len(b))
		}
		if h.dtype == dgAck && h.flen != 0 {
			t.Fatal("filter accepted an ack with frame bytes")
		}
		if dgChecksum(b) != uint32(leU32(b[60:])) {
			t.Fatal("filter accepted a datagram whose checksum does not verify")
		}
	})
}

// leU32 is a tiny local decode so the fuzz invariant check does not
// depend on the code under test.
func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
