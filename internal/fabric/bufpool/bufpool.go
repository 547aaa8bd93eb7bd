// Package bufpool is the fabric layer's size-classed buffer arena: the
// recycling pool behind the zero-allocation receive path. Transports
// decode inbound frames into buffers borrowed from this pool
// (fabric.DecodePacketPooled / fabric.DecodeHeaderPooled), the engine
// copies the payload into the application buffer, and the buffer comes
// back through Put — so the steady-state eager path allocates nothing
// per packet, which is what keeps the communication engine's overhead
// from eating the overlap wins the paper measures. The send side borrows
// too: the stream and ring transports serialize outbound frames into
// pool buffers (fabric.AppendPacketPooled) and return each batch once it
// is written.
//
// Buffers are held in power-of-two size classes from 512 B to 4 MiB,
// one sync.Pool per class, so a burst of mixed-size traffic cannot pin
// peak memory: the runtime trims each class under GC pressure exactly
// as it does any sync.Pool. Requests above the largest class fall back
// to plain allocation and Put quietly drops them (and any slice whose
// capacity is not exactly a class size), so a stray foreign buffer can
// never poison a class with the wrong capacity.
//
// Ownership discipline is the caller's: a buffer handed to Put must not
// be read, written, or aliased afterwards — the next Get may hand it to
// an unrelated connection. docs/PERF.md spells out the hand-off rules
// the fabric and engine follow.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"

	"pioman/internal/telemetry"
)

const (
	// minClassBits is the smallest class, 1<<9 = 512 bytes: below the
	// typical eager header+payload frame but big enough that tiny
	// control payloads don't fragment the classes.
	minClassBits = 9
	// maxClassBits is the largest class, 1<<22 = 4 MiB: comfortably
	// above the rails' MTUs and eager thresholds; rendezvous payloads
	// beyond it are one-off bulk transfers the GC handles fine.
	maxClassBits = 22
	numClasses   = maxClassBits - minClassBits + 1
)

// MaxPooled is the largest request the pool serves from a class;
// larger buffers are plainly allocated and never recycled.
const MaxPooled = 1 << maxClassBits

// Pool traffic counters. The pool is process-global and hammered from
// every rail's receive goroutine at once, so these are sharded: an Inc
// costs one cache-local atomic add and never serializes rails on a
// shared line. They are always on — the cost is identical whether or not
// a registry reads them, which keeps bench comparisons honest.
var (
	hits   telemetry.ShardedCounter // Get served from a class pool
	misses telemetry.ShardedCounter // Get fell back to make (cold class or oversized)
	puts   telemetry.ShardedCounter // Put recycled a buffer into its class
	drops  telemetry.ShardedCounter // Put dropped a foreign or oversized buffer
)

// Stats is a point-in-time capture of the pool counters.
type Stats struct {
	Hits   uint64 // Gets served from a class pool
	Misses uint64 // Gets that allocated (cold class or > MaxPooled)
	Puts   uint64 // buffers recycled into a class
	Drops  uint64 // buffers rejected by Put
}

// Snapshot returns the current pool counters.
func Snapshot() Stats {
	return Stats{Hits: hits.Load(), Misses: misses.Load(), Puts: puts.Load(), Drops: drops.Load()}
}

// RegisterMetrics registers the pool's counters with reg under
// "process.bufpool.*". The pool is process-global, so the names carry no
// node prefix; in-process multi-node worlds share one pool and one set
// of series.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("process.bufpool.hits", "buffer gets served from a size-class pool", hits.Load)
	reg.RegisterCounter("process.bufpool.misses", "buffer gets that fell back to allocation", misses.Load)
	reg.RegisterCounter("process.bufpool.puts", "buffers recycled into a size class", puts.Load)
	reg.RegisterCounter("process.bufpool.drops", "buffers rejected by Put (foreign or oversized)", drops.Load)
}

// pools[i] holds buffers of exactly 1<<(minClassBits+i) bytes capacity.
// Each entry stores an unsafe.Pointer to the buffer's first byte rather
// than a boxed []byte: a pointer fits an interface word, so Get and Put
// themselves allocate nothing — boxing a slice header would cost the
// very per-packet allocation the pool exists to remove.
var pools [numClasses]sync.Pool

// classFor returns the class index serving a request of n bytes, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > MaxPooled {
		return -1
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// classSize returns the buffer capacity of class c.
func classSize(c int) int { return 1 << (minClassBits + c) }

// Get returns a buffer of length n, drawn from the class pool when
// n ≤ MaxPooled (its capacity is then the class size) and plainly
// allocated otherwise. The contents are unspecified: callers overwrite
// the buffer before reading it, as every decode path does.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		misses.Inc()
		return make([]byte, n)
	}
	if p, _ := pools[c].Get().(unsafe.Pointer); p != nil {
		hits.Inc()
		return unsafe.Slice((*byte)(p), classSize(c))[:n]
	}
	misses.Inc()
	return make([]byte, n, classSize(c))
}

// Put hands b back to its class pool. Buffers whose capacity is not
// exactly a class size — foreign slices, or oversized one-offs from the
// plain-allocation fallback — are dropped for the GC, never pooled, so
// the class invariant (every pooled buffer has its class's capacity)
// holds unconditionally. The caller must drop every alias of b first:
// the next Get may hand the same memory to an unrelated stream.
func Put(b []byte) {
	c := classFor(cap(b))
	if c < 0 || cap(b) != classSize(c) {
		drops.Inc()
		return
	}
	puts.Inc()
	b = b[:1] // non-empty reslice so &b[0] addresses the backing array
	pools[c].Put(unsafe.Pointer(&b[0]))
}
