// Package sync2 provides the light synchronization primitives the paper's
// event-driven design relies on: spinlocks ("as the communication
// processing runs for a very short period of time, the synchronization can
// be achieved by using light primitives such as spinlocks", §2.1), and the
// one-shot event flag that wakes waiting threads: one atomic word, so
// completing a request nobody blocked on is a single swap.
package sync2

import (
	"runtime"
	"sync/atomic"
)

// SpinLock is a test-and-test-and-set spinlock. Critical sections in the
// engine are a few hundred nanoseconds, so spinning beats parking. After a
// bounded number of failed acquisition attempts the lock yields to the Go
// scheduler to avoid livelock when the owner is descheduled.
type SpinLock struct {
	state atomic.Int32
}

// spinsBeforeYield bounds busy spinning before cooperating with the runtime.
const spinsBeforeYield = 128

// Lock acquires the lock, spinning until available.
func (l *SpinLock) Lock() {
	spins := 0
	for {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			return
		}
		spins++
		if spins >= spinsBeforeYield {
			spins = 0
			runtime.Gosched()
		}
	}
}

// TryLock attempts a single acquisition and reports success. The engine
// uses it for opportunistic polling: if another core is already making
// progress there is no point waiting for the lock.
func (l *SpinLock) TryLock() bool {
	return l.state.Load() == 0 && l.state.CompareAndSwap(0, 1)
}

// Unlock releases the lock. Unlocking an unlocked SpinLock panics, as with
// sync.Mutex.
func (l *SpinLock) Unlock() {
	if !l.state.CompareAndSwap(1, 0) {
		panic("sync2: unlock of unlocked SpinLock")
	}
}
