package fabric

import (
	"bytes"
	"testing"

	"pioman/internal/fabric/bufpool"
)

// FuzzDecodePacket holds the two pooled decoders every transport's
// receive path runs to what arbitrary bytes may not break: neither
// panics; DecodePacketPooled accepts exactly the inputs
// DecodeHeaderPooled accepts as one whole frame; a frame it accepts
// carries the input's trailing bytes as its payload and, re-encoded with
// AppendPacket, decodes to the same header fields and payload (nil stays
// nil); and every decoded packet is released, so the
// buffer pool's gets and puts balance across each input. The committed
// corpus under testdata/fuzz/FuzzDecodePacket — valid frames of every
// kind with nil, empty and short payloads, plus truncated, over-long and
// lying length prefixes and a bad version byte — runs as a tier-1 test.
func FuzzDecodePacket(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		before := bufpool.Snapshot()
		h, frameLen, herr := DecodeHeaderPooled(b)
		if herr == nil {
			if frameLen < HeaderScratchBytes || len(h.Payload) != frameLen-HeaderScratchBytes {
				t.Fatalf("header decode: frame of %d bytes with a %d-byte payload", frameLen, len(h.Payload))
			}
			ReleasePacket(h)
		}
		p, err := DecodePacketPooled(b)
		if whole := herr == nil && frameLen == len(b); (err == nil) != whole {
			t.Fatalf("DecodePacketPooled err = %v, but the header decoder read one whole frame = %v", err, whole)
		}
		if err == nil {
			if !bytes.Equal(p.Payload, b[HeaderScratchBytes:]) {
				t.Fatalf("decoded payload %x differs from the frame's trailing bytes %x", p.Payload, b[HeaderScratchBytes:])
			}
			q, err := DecodePacketPooled(AppendPacket(nil, p))
			if err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
			samePacket(t, p, q)
			ReleasePacket(q)
			ReleasePacket(p)
		}
		after := bufpool.Snapshot()
		gets := after.Hits + after.Misses - before.Hits - before.Misses
		puts := after.Puts + after.Drops - before.Puts - before.Drops
		if gets != puts {
			t.Fatalf("buffer pool: %d gets, %d puts", gets, puts)
		}
	})
}
