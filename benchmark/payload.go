package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Every payload message starts with this header; the rest is the slot's
// seeded pattern. The sequence number catches a lost, duplicated or
// reordered message, the pattern a corrupted or misplaced byte.
const (
	hdrLen   = 16 // seq u64 | length u32 | slot u16 | flags u16
	flagLast = 1  // the sender stops after this iteration
)

// patterns returns one pristine pattern per slot, a pure function of the
// seed. Senders stamp headers into private copies; receivers compare
// against these.
func patterns(seed int64, slots, size int) [][]byte {
	ref := make([][]byte, slots)
	for s := range ref {
		ref[s] = make([]byte, size)
		rand.New(rand.NewSource(seed<<8 + int64(s))).Read(ref[s])
	}
	return ref
}

// stamp writes the header into the first hdrLen bytes of msg.
func stamp(msg []byte, seq uint64, slot int, flags uint16) {
	binary.LittleEndian.PutUint64(msg[0:], seq)
	binary.LittleEndian.PutUint32(msg[8:], uint32(len(msg)))
	binary.LittleEndian.PutUint16(msg[12:], uint16(slot))
	binary.LittleEndian.PutUint16(msg[14:], flags)
}

// verify checks a received message against what the sender must have
// built: exact length, header fields, and every pattern byte. It returns
// the header's flags.
func verify(got []byte, wantLen int, wantSeq uint64, slot int, ref []byte) (uint16, error) {
	if len(got) != wantLen {
		return 0, fmt.Errorf("length %d, want %d", len(got), wantLen)
	}
	if len(got) < hdrLen {
		return 0, fmt.Errorf("length %d below header", len(got))
	}
	seq := binary.LittleEndian.Uint64(got[0:])
	n := binary.LittleEndian.Uint32(got[8:])
	sl := binary.LittleEndian.Uint16(got[12:])
	flags := binary.LittleEndian.Uint16(got[14:])
	if seq != wantSeq || int(n) != wantLen || int(sl) != slot {
		return flags, fmt.Errorf("header seq %d len %d slot %d, want seq %d len %d slot %d",
			seq, n, sl, wantSeq, wantLen, slot)
	}
	if !bytes.Equal(got[hdrLen:], ref[hdrLen:wantLen]) {
		return flags, fmt.Errorf("payload of seq %d differs from the slot %d pattern", seq, slot)
	}
	return flags, nil
}

// mixSize draws the bidir_mix size of one message: 70% 64 B, 20% 4 KiB,
// 8% 48 KiB, 2% 256 KiB. It is a pure function, so the receiving rank
// computes the size its peer sent without being told.
func mixSize(seed int64, rank, batch, slot int) int {
	// splitmix64 over the coordinates
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rank)<<48 + uint64(batch)<<8 + uint64(slot)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	switch u := x % 100; {
	case u < 70:
		return small
	case u < 90:
		return 4 << 10
	case u < 98:
		return 48 << 10
	default:
		return large
	}
}
