package shmfab

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
	"unsafe"
)

// On-disk ring layout, all fields little-endian via the host's native
// atomics (both sides of a ring run on the same host, so there is no
// cross-endian concern):
//
//	off   0  u64  magic — written last by the creator; attachers spin on it
//	off   8  u32  layout version
//	off  12  u32  slot count
//	off  16  u32  slot data capacity (bytes)
//	off  64  u64  prodSeq — slots published by the producer (own cache line)
//	off 128  u64  consSeq — slots released by the consumer (own cache line)
//	off 192  slot[0], slot[1], ...
//
//	slot: u64 seq (published last, = absolute slot index + 1)
//	      u32 data length
//	      u32 reserved
//	      [slotBytes] data
//
// The ring is strictly single-producer/single-consumer. A slot is
// publish-handshaked by its seq field: the producer fills data and length
// with plain stores, then atomically stores seq = absIndex+1; the consumer
// atomically loads seq, and equality with its own cursor+1 guarantees the
// plain fields are visible (the atomic pair orders them). The header
// counters let each side see the other's progress: the producer writes a
// slot only while prodSeq-consSeq < slots, the consumer releases a slot by
// advancing consSeq after copying the data out. Frames larger than one
// slot simply span consecutive slots as a byte stream; the fabric codec's
// length prefix re-delimits them on the consumer side.
const (
	ringMagic   = 0x50494F4D53484D31 // "PIOMSHM1"
	ringVersion = 1

	offMagic     = 0
	offVersion   = 8
	offSlots     = 12
	offSlotBytes = 16
	offProdSeq   = 64
	offConsSeq   = 128
	ringHdrBytes = 192

	slotHdrBytes = 16 // u64 seq + u32 length + u32 reserved
)

// ring is one mapping of one SPSC ring file. A ring value is used in
// exactly one role — producer (the rank the file's name lists as source)
// or consumer — and each role keeps its cursor in ordinary memory; only
// the shared header counters and per-slot seq fields cross the mapping.
type ring struct {
	f   *os.File
	mem []byte

	slots     int
	slotBytes int

	// prod is the producer's cursor: absolute index of the next slot to
	// write. Mirrors the shared prodSeq header field, which exists so a
	// restarted producer can resume and so tooling can observe progress.
	prod uint64
	// cons is the consumer's cursor: absolute index of the next slot to
	// read. Mirrors the shared consSeq header field.
	cons uint64
}

// ringFileSize returns the file size for a ring of the given geometry.
func ringFileSize(slots, slotBytes int) int {
	return ringHdrBytes + slots*(slotHdrBytes+slotBytes)
}

// u64at returns an atomically addressable view of an 8-aligned header or
// slot field. The mapping is page-aligned and every offset used is a
// multiple of 8, which sync/atomic requires.
func u64at(b []byte, off int) *uint64 {
	return (*uint64)(unsafe.Pointer(&b[off]))
}

// u32at returns a plain view of a 4-aligned field.
func u32at(b []byte, off int) *uint32 {
	return (*uint32)(unsafe.Pointer(&b[off]))
}

// slotOff returns the byte offset of slot i's header.
func (r *ring) slotOff(i uint64) int {
	return ringHdrBytes + int(i%uint64(r.slots))*(slotHdrBytes+r.slotBytes)
}

// openRing creates or attaches the ring file at path. Exactly one caller
// wins an O_EXCL create and initializes the mapping, publishing the magic
// word last; every other caller — a concurrent creator that lost the race,
// or an attacher arriving before the creator finished — waits, bounded by
// deadline, for the file to reach full size and the magic to appear, then
// validates the geometry against its own configuration.
func openRing(path string, slots, slotBytes int, deadline time.Time) (*ring, error) {
	size := ringFileSize(slots, slotBytes)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		return initRing(f, path, slots, slotBytes, size)
	}
	if !os.IsExist(err) {
		return nil, fmt.Errorf("shmfab: create ring %s: %w", path, err)
	}
	f, err = os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("shmfab: open ring %s: %w", path, err)
	}
	// The creator truncates to full size before initializing; wait for it.
	for {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("shmfab: stat ring %s: %w", path, err)
		}
		if st.Size() >= int64(size) {
			break
		}
		// A smaller-but-initialized file is not a slow creator — it is a
		// finished creator with different geometry. Diagnose that now
		// rather than burning the whole attach timeout on the wrong
		// theory.
		if st.Size() >= ringHdrBytes {
			if hdr, herr := mmapFile(f, ringHdrBytes); herr == nil {
				done := atomic.LoadUint64(u64at(hdr, offMagic)) == ringMagic
				s, sb := int(*u32at(hdr, offSlots)), int(*u32at(hdr, offSlotBytes))
				munmapFile(hdr)
				if done {
					f.Close()
					return nil, fmt.Errorf("shmfab: ring %s has geometry %d×%dB, this endpoint is configured for %d×%dB — both sides must agree",
						path, s, sb, slots, slotBytes)
				}
			}
		}
		if time.Now().After(deadline) {
			f.Close()
			return nil, fmt.Errorf("shmfab: ring %s stuck at %d of %d bytes: creator died mid-init?", path, st.Size(), size)
		}
		time.Sleep(200 * time.Microsecond)
	}
	mem, err := mmapFile(f, size)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shmfab: map ring %s: %w", path, err)
	}
	r := &ring{f: f, mem: mem, slots: slots, slotBytes: slotBytes}
	for atomic.LoadUint64(u64at(mem, offMagic)) != ringMagic {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("shmfab: ring %s never published its magic: creator died mid-init?", path)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if v := *u32at(mem, offVersion); v != ringVersion {
		r.close()
		return nil, fmt.Errorf("shmfab: ring %s is layout version %d, want %d", path, v, ringVersion)
	}
	if s, sb := int(*u32at(mem, offSlots)), int(*u32at(mem, offSlotBytes)); s != slots || sb != slotBytes {
		r.close()
		return nil, fmt.Errorf("shmfab: ring %s has geometry %d×%dB, this endpoint is configured for %d×%dB — both sides must agree",
			path, s, sb, slots, slotBytes)
	}
	r.prod = atomic.LoadUint64(u64at(mem, offProdSeq))
	r.cons = atomic.LoadUint64(u64at(mem, offConsSeq))
	return r, nil
}

// initRing finishes a won O_EXCL create: size the file, map it, write the
// geometry, and only then publish the magic that releases waiting openers.
func initRing(f *os.File, path string, slots, slotBytes, size int) (*ring, error) {
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, fmt.Errorf("shmfab: size ring %s: %w", path, err)
	}
	mem, err := mmapFile(f, size)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shmfab: map ring %s: %w", path, err)
	}
	*u32at(mem, offVersion) = ringVersion
	*u32at(mem, offSlots) = uint32(slots)
	*u32at(mem, offSlotBytes) = uint32(slotBytes)
	atomic.StoreUint64(u64at(mem, offProdSeq), 0)
	atomic.StoreUint64(u64at(mem, offConsSeq), 0)
	atomic.StoreUint64(u64at(mem, offMagic), ringMagic)
	return &ring{f: f, mem: mem, slots: slots, slotBytes: slotBytes}, nil
}

// freeSlots reports how many slots the producer may write right now.
func (r *ring) freeSlots() int {
	return r.slots - int(r.prod-atomic.LoadUint64(u64at(r.mem, offConsSeq)))
}

// slotBuf returns the producer's next slot's data area as an empty
// slice with the slot's capacity, so a frame can be encoded straight
// into the mapping; publishSlot then publishes the first n bytes. The
// caller has checked freeSlots.
func (r *ring) slotBuf() []byte {
	off := r.slotOff(r.prod) + slotHdrBytes
	return r.mem[off : off : off+r.slotBytes]
}

// publishSlot publishes the producer's next slot carrying the first n
// bytes of its data area (producer side).
func (r *ring) publishSlot(n int) {
	off := r.slotOff(r.prod)
	*u32at(r.mem, off+8) = uint32(n)
	atomic.StoreUint64(u64at(r.mem, off), r.prod+1)
	r.prod++
	atomic.StoreUint64(u64at(r.mem, offProdSeq), r.prod)
}

// writeSlot publishes one slot carrying data (producer side). The caller
// has checked freeSlots; len(data) must be within the slot capacity.
func (r *ring) writeSlot(data []byte) {
	r.publishSlot(copy(r.slotBuf()[:len(data)], data))
}

// readable reports whether the consumer's next slot has been published.
func (r *ring) readable() bool {
	off := r.slotOff(r.cons)
	return atomic.LoadUint64(u64at(r.mem, off)) == r.cons+1
}

// peekSlot returns the consumer's next slot's data in place — a view
// into the mapping, valid only until releaseSlot hands the slot back to
// the producer. The caller has checked readable. Together with
// releaseSlot it is the consumer API: the decoder finishes with the
// bytes (in-place frame decode, or a copy into the frame being
// reassembled) before releasing.
func (r *ring) peekSlot() []byte {
	off := r.slotOff(r.cons)
	n := int(*u32at(r.mem, off+8))
	if n > r.slotBytes {
		n = r.slotBytes // corrupt length: clamp rather than overrun
	}
	return r.mem[off+slotHdrBytes : off+slotHdrBytes+n]
}

// releaseSlot returns the consumer's current slot to the producer. No
// view from peekSlot may be read afterwards: the producer is free to
// overwrite the memory the moment consSeq advances.
func (r *ring) releaseSlot() {
	r.cons++
	atomic.StoreUint64(u64at(r.mem, offConsSeq), r.cons)
}

// close unmaps and closes the ring file. The file itself stays in the
// directory: the peer process may still hold its own mapping, so cleanup
// of the directory is its owner's job (see Local).
func (r *ring) close() {
	if r.mem != nil {
		munmapFile(r.mem)
		r.mem = nil
	}
	r.f.Close()
}
