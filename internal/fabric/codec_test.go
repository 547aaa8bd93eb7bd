package fabric

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pioman/internal/wire"
)

var allKinds = []wire.PacketKind{
	wire.PktEager, wire.PktRTS, wire.PktCTS, wire.PktData, wire.PktCtrl, wire.PktAggr,
}

// edgePayloads covers the boundary shapes the satellite task calls out:
// nil, zero-byte, single byte, one-under/over the MX MTU, and a large
// rendezvous chunk.
func edgePayloads() [][]byte {
	mtu := 32 << 10
	mk := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 131)
		}
		return b
	}
	return [][]byte{
		nil,
		{},
		mk(1),
		mk(mtu - 1),
		mk(mtu),
		mk(mtu + 1),
		mk(256 << 10),
	}
}

// samePacket compares every exported field byte-exactly, keeping the
// nil-vs-empty payload distinction.
func samePacket(t *testing.T, want, got *wire.Packet) {
	t.Helper()
	if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst ||
		got.Tag != want.Tag || got.Seq != want.Seq || got.MsgID != want.MsgID ||
		got.Offset != want.Offset {
		t.Fatalf("header mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	wantWire := want.WireLen
	if wantWire == 0 {
		wantWire = len(want.Payload)
	}
	if got.WireLen != wantWire {
		t.Fatalf("wire len %d, want %d", got.WireLen, wantWire)
	}
	if (got.Payload == nil) != (want.Payload == nil) {
		t.Fatalf("payload nil-ness changed: want nil=%v got nil=%v", want.Payload == nil, got.Payload == nil)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("payload corrupted: %d bytes want %d", len(got.Payload), len(want.Payload))
	}
}

// roundTrip encodes p as one frame and decodes it back through the
// pooled decoder every datagram and ring transport uses.
func roundTrip(p *wire.Packet) (*wire.Packet, error) {
	return DecodePacketPooled(AppendPacket(nil, p))
}

func TestCodecRoundTripAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		for pi, payload := range edgePayloads() {
			p := &wire.Packet{
				Kind: kind, Src: 0, Dst: 3, Tag: -1016, Seq: 7, MsgID: 42,
				Offset: len(payload) / 2, Payload: payload,
				WireLen: len(payload) + 32,
			}
			got, err := roundTrip(p)
			if err != nil {
				t.Fatalf("kind %v payload #%d: %v", kind, pi, err)
			}
			samePacket(t, p, got)
		}
	}
}

func TestCodecRoundTripExtremes(t *testing.T) {
	p := &wire.Packet{
		Kind:   wire.PktData,
		Src:    math.MaxInt32,
		Dst:    -1, // AnySource-style sentinel must survive
		Tag:    math.MinInt32,
		Seq:    math.MaxUint64,
		MsgID:  math.MaxUint64 - 1,
		Offset: math.MaxInt32, // max rendezvous chunk offset
	}
	got, err := roundTrip(p)
	if err != nil {
		t.Fatal(err)
	}
	samePacket(t, p, got)
}

// TestCodecRoundTripProperty fuzzes random packets through the codec and
// through a concatenated stream walked frame by frame with
// DecodeHeaderPooled, the property being byte-exact round-trips for any
// field combination.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var stream []byte
	var sent []*wire.Packet
	for i := 0; i < 500; i++ {
		var payload []byte
		if rng.Intn(4) > 0 {
			payload = make([]byte, rng.Intn(1<<14))
			rng.Read(payload)
		}
		p := &wire.Packet{
			Kind:    allKinds[rng.Intn(len(allKinds))],
			Src:     rng.Intn(64),
			Dst:     rng.Intn(64),
			Tag:     rng.Intn(1<<20) - (1 << 19),
			Seq:     rng.Uint64(),
			MsgID:   rng.Uint64(),
			Offset:  rng.Intn(1 << 30),
			Payload: payload,
			WireLen: len(payload) + 32,
		}
		got, err := roundTrip(p)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		samePacket(t, p, got)
		stream = AppendPacket(stream, p)
		sent = append(sent, p)
	}
	// The concatenated stream must parse back packet-for-packet: this is
	// exactly what tcpfab's poller does with a socket's staging window.
	for i, want := range sent {
		got, n, err := DecodeHeaderPooled(stream)
		if err != nil {
			t.Fatalf("stream packet %d: %v", i, err)
		}
		copy(got.Payload, stream[HeaderScratchBytes:n])
		samePacket(t, want, got)
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(stream))
	}
}

// TestAppendEncodedMatchesAppendPacket: a frame built with
// AppendEncoded — header, then a payload encode writes in place — is
// byte for byte the frame AppendPacket builds from the same payload,
// whether dst has the capacity (the in-place case) or must grow.
func TestAppendEncodedMatchesAppendPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		payload := make([]byte, 1+rng.Intn(4096))
		rng.Read(payload)
		p := &wire.Packet{Kind: wire.PktAggr, Src: rng.Intn(8), Dst: rng.Intn(8), Tag: -1,
			Seq: rng.Uint64(), WireLen: len(payload) + 32, Payload: payload}
		want := AppendPacket(nil, p)
		p.Payload = nil
		encode := func(b []byte) {
			if len(b) != len(payload) {
				t.Fatalf("encode handed %d bytes for a %d-byte payload", len(b), len(payload))
			}
			copy(b, payload)
		}
		room := make([]byte, 0, len(want))
		if got := AppendEncoded(room, p, len(payload), encode); !bytes.Equal(got, want) || &got[0] != &room[:1][0] {
			t.Fatalf("packet %d: in-place frame differs from AppendPacket's, or left dst", i)
		}
		if got := AppendEncoded([]byte{7}, p, len(payload), encode); !bytes.Equal(got[1:], want) || got[0] != 7 {
			t.Fatalf("packet %d: grown frame differs from AppendPacket's", i)
		}
	}
}

// TestCodecRefusesOversizedPayloads: the encoder must stop an over-limit
// payload on the sender with a panic (transports refuse it earlier, in
// Send, as an error), because an encoded oversize frame either kills the
// receiving connection or (past 4 GiB) wraps the length prefix and
// desyncs the stream.
func TestCodecRefusesOversizedPayloads(t *testing.T) {
	p := &wire.Packet{Kind: wire.PktData, Payload: make([]byte, MaxFrameBytes-headerBytes+1)}
	defer func() {
		if recover() == nil {
			t.Error("AppendPacket encoded an over-limit payload without panicking")
		}
	}()
	AppendPacket(nil, p)
}

func TestCodecRejectsCorruptFrames(t *testing.T) {
	good := AppendPacket(nil, &wire.Packet{Kind: wire.PktEager, Payload: []byte("abc")})
	cases := map[string][]byte{
		"empty":            {},
		"short prefix":     good[:3],
		"truncated header": good[:10],
		"truncated body":   good[:len(good)-1],
		"trailing junk":    append(append([]byte{}, good...), 0xFF),
		"bad version":      func() []byte { b := append([]byte{}, good...); b[4] = 99; return b }(),
		"huge length":      {0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, b := range cases {
		if _, err := DecodePacketPooled(b); err == nil {
			t.Errorf("%s: corrupt frame decoded without error", name)
		}
	}
	// Stream decoder: a header announcing more than MaxFrameBytes is
	// refused before any payload buffer is drawn.
	huge := append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, good[4:]...)
	if _, _, err := DecodeHeaderPooled(huge); err == nil {
		t.Errorf("oversized stream frame accepted")
	}
}
