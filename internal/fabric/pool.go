package fabric

import (
	"sync"

	"pioman/internal/fabric/bufpool"
	"pioman/internal/wire"
)

// The packet freelist pairs with bufpool to make the steady-state
// receive path allocation-free: transports decode inbound frames into
// pooled *wire.Packet structs (GetPacket) carrying pooled payload
// buffers (bufpool.Get, flagged by Packet.Pooled), and the engine hands
// both back through ReleasePacket once the payload has been copied into
// its final destination. The ownership rule is written down in
// docs/FABRIC.md ("Inbound buffer ownership") and docs/PERF.md.

// pktPool recycles packet structs. Every packet in the pool is zeroed,
// so GetPacket hands out clean state without paying a per-Get wipe.
var pktPool = sync.Pool{New: func() any { return new(wire.Packet) }}

// GetPacket returns a zeroed packet from the packet freelist. Producers
// that fully relinquish their packets — transports decoding inbound
// frames, drivers whose endpoint captures sends (see SendCapturer) —
// draw from here so the structs circulate instead of churning the GC.
func GetPacket() *wire.Packet {
	return pktPool.Get().(*wire.Packet)
}

// ReleasePacket returns p to the packet freelist and, when p.Pooled is
// set, its payload buffer to the fabric buffer pool. The caller must be
// the packet's final owner and must drop every alias of p and p.Payload
// first: after release the same memory may carry an unrelated stream's
// frame. Releasing nil is a no-op. Packets that are never released are
// reclaimed by the GC as before — release is an optimization with an
// aliasing obligation, not a correctness requirement for consumers that
// keep payloads around (tests, tracing tools).
func ReleasePacket(p *wire.Packet) {
	if p == nil {
		return
	}
	if p.Pooled {
		bufpool.Put(p.Payload)
	}
	*p = wire.Packet{}
	pktPool.Put(p)
}

// CapturePacket returns a pooled deep copy of p: a packet-freelist
// struct whose payload (when present) lives in a fabric buffer-pool
// borrow, flagged Pooled so the consumer's ReleasePacket recycles it.
// Transports use it on their self-delivery paths, where Send must stop
// aliasing the caller's packet and payload before inboxing (the
// capture-before-return rule of docs/FABRIC.md) — one shared helper so
// the capture discipline cannot drift between backends.
func CapturePacket(p *wire.Packet) *wire.Packet {
	q := GetPacket()
	*q = *p
	q.Pooled = false
	if p.Payload != nil {
		q.Payload = bufpool.Get(len(p.Payload))
		copy(q.Payload, p.Payload)
		q.Pooled = true
	}
	return q
}

// AppendPacketPooled is AppendPacket for outbound buffers that are
// bufpool borrows — the serialized send queues of the stream and ring
// transports. When p's frame does not fit in dst's capacity, dst moves
// into a pool buffer sized for the grown length and its old storage goes
// back to the pool, so a queue that drains between bursts circulates
// through the size classes instead of allocating a fresh buffer per
// large frame. Above bufpool.MaxPooled, where Get falls back to an
// exact-size make, the buffer grows geometrically by plain allocation
// instead: a queue toward a stalled peer then copies itself O(log n)
// times, not once per frame. dst must not be used after the call; the
// caller hands the result to bufpool.Put once no byte of it is needed.
func AppendPacketPooled(dst []byte, p *wire.Packet) []byte {
	if need := len(dst) + EncodedSize(p); need > cap(dst) {
		var grown []byte
		if need <= bufpool.MaxPooled {
			grown = bufpool.Get(need)[:len(dst)]
		} else {
			grown = make([]byte, len(dst), max(need, 2*cap(dst)))
		}
		copy(grown, dst)
		if cap(dst) > 0 {
			bufpool.Put(dst)
		}
		dst = grown
	}
	return AppendPacket(dst, p)
}

// SendCapturer is an optional Endpoint capability: SendCaptures reports
// that Send fully captures every packet before returning — serializing
// or copying it, retaining neither the *wire.Packet nor its Payload
// slice. Submitters may then recycle the packet struct the moment Send
// returns (the nic driver returns outbound packets to the packet
// freelist). The wire-simulator backend deliberately does not implement
// it: the modeled wire delivers the very packet object the sender
// injected, so its receiver is the one who may release it.
type SendCapturer interface {
	// SendCaptures reports whether Send captures packets fully before
	// returning.
	SendCaptures() bool
}
