package fabric

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pioman/internal/fabric/bufpool"
	"pioman/internal/wire"
)

// Wire format of one framed packet, little-endian throughout:
//
//	u32  frame length (bytes that follow, i.e. header + payload)
//	u8   codec version
//	u8   packet kind
//	u8   flags (bit0: payload present — distinguishes nil from 0-byte)
//	u8   reserved
//	i32  src
//	i32  dst
//	i64  tag      (collective tags are negative)
//	u64  seq
//	u64  msg id
//	i64  offset   (rendezvous chunk position)
//	i64  wire len (modeled size; kept so both backends charge alike)
//	u32  payload length
//	...  payload bytes
//
// The frame length prefix lets a stream transport (tcpfab) delimit packets
// without touching the header, and the version byte leaves room to evolve
// the header without breaking mixed-version clusters mid-upgrade.
const (
	codecVersion = 1

	flagPayload = 1 << 0

	// headerBytes is the fixed-size portion after the length prefix.
	headerBytes = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4

	// MaxFrameBytes bounds one frame (128 MiB): a decoder reading a
	// corrupt or hostile length prefix must not attempt an unbounded
	// allocation.
	MaxFrameBytes = 128 << 20

	// MaxPayloadBytes is the largest payload one frame can carry.
	// Transports should refuse bigger payloads in Send, where the caller
	// still gets a synchronous error.
	MaxPayloadBytes = MaxFrameBytes - headerBytes

	// HeaderScratchBytes is the length prefix plus fixed header: the
	// smallest legal frame, and what DecodeHeaderPooled needs to see.
	HeaderScratchBytes = 4 + headerBytes
)

// EncodedSize returns the full frame size of p, length prefix included.
func EncodedSize(p *wire.Packet) int {
	return 4 + headerBytes + len(p.Payload)
}

// AppendPacket appends p's frame to dst and returns the extended slice.
// It panics on a payload too large for one frame: every encode path must
// refuse such packets on the sender, because past 4 GiB the u32 length
// prefix wraps and desyncs the whole stream, and even below that the
// receiver's MaxFrameBytes guard would kill the connection. Transports
// refuse such payloads in Send first, as a synchronous error.
func AppendPacket(dst []byte, p *wire.Packet) []byte {
	dst = appendHeader(dst, p, len(p.Payload), p.Payload != nil)
	return append(dst, p.Payload...)
}

// AppendEncoded appends the frame of p with an n-byte payload that
// encode writes in place, exactly as AppendPacket frames p once
// p.Payload holds those bytes: the transport half of FrameEncoder. It
// grows dst only when dst lacks the capacity, so a transport that hands
// it the empty slice of its own send memory gets the frame built there.
// p.Payload is ignored.
func AppendEncoded(dst []byte, p *wire.Packet, n int, encode func(payload []byte)) []byte {
	dst = appendHeader(dst, p, n, true)
	dst = slices.Grow(dst, n)[:len(dst)+n]
	encode(dst[len(dst)-n:])
	return dst
}

// appendHeader appends the length prefix and fixed header of p's frame,
// for a payload of n bytes (present marks a non-nil payload).
func appendHeader(dst []byte, p *wire.Packet, n int, present bool) []byte {
	if n > MaxPayloadBytes {
		panic(fmt.Sprintf("fabric: %d-byte payload exceeds frame limit %d", n, MaxPayloadBytes))
	}
	var flags byte
	if present {
		flags = flagPayload
	}
	wireLen := p.WireLen
	if wireLen == 0 {
		wireLen = n
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerBytes+n))
	dst = append(dst, codecVersion, byte(p.Kind), flags, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(p.Src)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(p.Dst)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(p.Tag)))
	dst = binary.LittleEndian.AppendUint64(dst, p.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, p.MsgID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(p.Offset)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(wireLen)))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// DecodePacketPooled parses one complete frame, exactly b, into a packet
// from the packet freelist whose payload comes from the fabric buffer
// pool (Packet.Pooled is set accordingly). The caller chain must hand the
// result to ReleasePacket once done — transports use this on their
// receive paths, and the engine releases after copying the payload out,
// which is what keeps the steady-state eager path free of per-packet
// allocation. The length prefix is checked against len(b) before any
// payload buffer is drawn, so a lying prefix costs no allocation.
func DecodePacketPooled(b []byte) (*wire.Packet, error) {
	if len(b) >= 4 && binary.LittleEndian.Uint32(b) != uint32(len(b)-4) {
		return nil, fmt.Errorf("fabric: frame length %d does not match %d trailing bytes", binary.LittleEndian.Uint32(b), len(b)-4)
	}
	p, _, err := DecodeHeaderPooled(b)
	if err != nil {
		return nil, err
	}
	copy(p.Payload, b[HeaderScratchBytes:])
	return p, nil
}

// parseHeader fills p's header fields from hdr (exactly the fixed-size
// portion after the length prefix) and returns the declared payload
// length and whether a payload is present (the nil-vs-empty flag).
func parseHeader(hdr []byte, p *wire.Packet) (plen uint32, withPayload bool, err error) {
	if v := hdr[0]; v != codecVersion {
		return 0, false, fmt.Errorf("fabric: unknown codec version %d", v)
	}
	p.Kind = wire.PacketKind(hdr[1])
	p.Src = int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	p.Dst = int(int32(binary.LittleEndian.Uint32(hdr[8:])))
	p.Tag = int(int64(binary.LittleEndian.Uint64(hdr[12:])))
	p.Seq = binary.LittleEndian.Uint64(hdr[20:])
	p.MsgID = binary.LittleEndian.Uint64(hdr[28:])
	p.Offset = int(int64(binary.LittleEndian.Uint64(hdr[36:])))
	p.WireLen = int(int64(binary.LittleEndian.Uint64(hdr[44:])))
	plen = binary.LittleEndian.Uint32(hdr[52:])
	withPayload = hdr[2]&flagPayload != 0
	if !withPayload && plen != 0 {
		return 0, false, fmt.Errorf("fabric: nil-payload frame carries %d payload bytes", plen)
	}
	return plen, withPayload, nil
}

// DecodeHeaderPooled parses the length prefix plus fixed header at the
// start of b — at least HeaderScratchBytes — into a packet from the
// freelist whose payload buffer is allocated from the fabric buffer pool
// but left unfilled. It is the entry point for event-driven stream
// decoders that cannot block in io.ReadFull: the caller consumes
// HeaderScratchBytes from its staging window, fills p.Payload from the
// stream as bytes arrive, and owns the packet (ReleasePacket on error or
// after delivery). frameLen is the full frame size including the
// prefix, so the caller knows where the next frame starts.
func DecodeHeaderPooled(b []byte) (p *wire.Packet, frameLen int, err error) {
	if len(b) < HeaderScratchBytes {
		return nil, 0, fmt.Errorf("fabric: header scratch of %d bytes, need %d", len(b), HeaderScratchBytes)
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxFrameBytes {
		return nil, 0, fmt.Errorf("fabric: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	if n < headerBytes {
		return nil, 0, fmt.Errorf("fabric: frame body of %d bytes below header size %d", n, headerBytes)
	}
	p = GetPacket()
	plen, withPayload, err := parseHeader(b[4:4+headerBytes], p)
	if err != nil {
		ReleasePacket(p)
		return nil, 0, err
	}
	if n-headerBytes != plen {
		ReleasePacket(p)
		return nil, 0, fmt.Errorf("fabric: payload length %d does not match %d trailing bytes", plen, n-headerBytes)
	}
	if withPayload {
		p.Payload = bufpool.Get(int(plen))
		p.Pooled = true
	}
	return p, 4 + int(n), nil
}
