// Package ptime provides microsecond-precision busy-wait timing used to
// model CPU-bound costs (application computation, memory copies, PIO
// transfers) on real cores.
//
// The paper's central claim is that CPU-hungry communication operations can
// be moved to idle cores so that they physically overlap with application
// computation. To reproduce that mechanically, every CPU cost in this
// repository is an actual busy-wait executed by the goroutine that "pays"
// the cost: if the spin runs on an idle core's worker, the application
// thread keeps computing in parallel; if it runs inline, it delays the
// caller. Wall-clock measurements then exhibit the same max-vs-sum behaviour
// the paper reports.
package ptime

import (
	"sync/atomic"
	"time"
)

// spinBatch is the number of inner iterations executed between clock reads.
// Reading the clock on every iteration would dominate the loop on fast
// machines; batching keeps precision well under a microsecond while keeping
// the loop CPU-bound.
const spinBatch = 64

// sink defeats dead-code elimination of the spin loop.
var sink atomic.Uint64

// SpinFor busy-waits for approximately d, burning the executing core.
// It never yields to the Go scheduler: the point is to occupy a core the
// way a memcpy or PIO transfer would. In virtual mode (SetVirtual) the
// duration is billed to the calling goroutine's meter instead of burned.
func SpinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	if virtualOn.Load() {
		charge(d)
		return
	}
	SpinUntil(time.Now().Add(d))
}

// SpinUntil busy-waits until the wall clock reaches deadline; in virtual
// mode the remaining duration is billed instead of burned.
func SpinUntil(deadline time.Time) {
	if virtualOn.Load() {
		charge(time.Until(deadline))
		return
	}
	var acc uint64
	for time.Now().Before(deadline) {
		for i := 0; i < spinBatch; i++ {
			acc += uint64(i)
		}
	}
	sink.Add(acc)
}

// Compute is an alias for SpinFor with intent: it models application
// computation (the compute() phase of the paper's Fig. 4 benchmark).
func Compute(d time.Duration) { SpinFor(d) }

// A Stopwatch measures elapsed wall time with the monotonic clock. In
// virtual mode it additionally counts the virtual CPU time billed to its
// own goroutine, so a measurement spanning charged costs reads the same
// whether they were burned or booked; create and read it on the same
// goroutine.
type Stopwatch struct {
	start   time.Time
	vstart  time.Duration
	virtual bool
}

// NewStopwatch returns a started stopwatch.
func NewStopwatch() Stopwatch {
	sw := Stopwatch{start: time.Now()}
	if virtualOn.Load() {
		sw.virtual = true
		sw.vstart = Charged()
	}
	return sw
}

// Elapsed reports the time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	el := time.Since(s.start)
	if s.virtual {
		el += Charged() - s.vstart
	}
	return el
}
