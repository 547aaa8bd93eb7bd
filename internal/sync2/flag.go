package sync2

import (
	"sync/atomic"
	"time"
)

// Flag is a one-shot completion event. A request's completion is signaled
// exactly once by whichever core detects it; any number of goroutines may
// wait. Waiters first spin briefly (completions usually arrive within a few
// microseconds in the engine) and then fall back to a channel so that long
// waits do not burn a core.
type Flag struct {
	done    atomic.Bool
	settled atomic.Bool
	mu      SpinLock
	ch      chan struct{} // created by the first blocked waiter; guarded by mu
	fired   bool          // ch closed; guarded by mu
}

// channel returns the notification channel, creating it on first use —
// which only happens when a waiter actually blocks. If the flag is
// already set by then, the channel is closed immediately so the waiter
// falls straight through. Completions that nobody blocks on (the common
// case: waits finish in their spin phase) never allocate a channel,
// keeping Set allocation-free on the hot path.
func (f *Flag) channel() chan struct{} {
	f.mu.Lock()
	if f.ch == nil {
		f.ch = make(chan struct{})
	}
	if f.done.Load() && !f.fired {
		close(f.ch)
		f.fired = true
	}
	ch := f.ch
	f.mu.Unlock()
	return ch
}

// Set marks the flag done and wakes all waiters. Setting an already-set
// flag is a no-op, so multiple detectors may race safely. The done/fired
// split closes the channel exactly once no matter how Set interleaves
// with a blocking waiter's channel creation: whichever of the two runs
// second under mu observes both conditions and performs the close.
func (f *Flag) Set() {
	if f.done.Swap(true) {
		return
	}
	f.mu.Lock()
	if f.ch != nil && !f.fired {
		close(f.ch)
		f.fired = true
	}
	f.mu.Unlock()
	f.settled.Store(true)
}

// IsSet reports whether Set has been called.
func (f *Flag) IsSet() bool { return f.done.Load() }

// Settled reports that the winning Set call has fully finished — the
// wakeup channel is closed, no completer is still inside Set. A waiter
// that saw IsSet may race the tail of Set by a few instructions, so
// anything that recycles the memory holding a Flag (the engine's
// request freelists) must wait for Settled first; it follows IsSet
// within nanoseconds.
func (f *Flag) Settled() bool { return f.settled.Load() }

// Wait blocks until the flag is set.
func (f *Flag) Wait() {
	if f.done.Load() {
		return
	}
	<-f.channel()
}

// spinWait busy-waits up to spin before blocking on the channel. It
// returns as soon as the flag is set. The spin phase keeps the sub-5µs
// completion path free of scheduler round trips. The engine spins in its
// own wait loop instead (it polls while it spins), so only this package's
// tests call it.
func (f *Flag) spinWait(spin time.Duration) {
	if f.done.Load() {
		return
	}
	deadline := time.Now().Add(spin)
	for time.Now().Before(deadline) {
		if f.done.Load() {
			return
		}
	}
	<-f.channel()
}
