package sync2

import (
	"sync"
	"sync/atomic"
)

// Flag is a one-shot completion event. A request's completion is signaled
// exactly once by whichever core detects it; any number of goroutines may
// wait. The whole flag is one atomic word: nil while pending, flagDone
// once set, or — while goroutines block on a pending flag — the head of
// the stack of their parkers. Waits that finish before the flag is set
// never touch that stack, so a completion nobody blocked on costs Set one
// swap, and a blocking wait borrows a pooled parker instead of making a
// channel.
type Flag struct {
	state atomic.Pointer[parker]
}

// parker is one blocked waiter: a stack link and the one-slot channel its
// owner sleeps on. Parkers recycle through parkerPool, so the channel is
// made once and reused by every wait that blocks.
type parker struct {
	next *parker
	wake chan struct{}
}

var parkerPool = sync.Pool{New: func() any { return &parker{wake: make(chan struct{}, 1)} }}

// flagDone is the state of a set flag. It is never pushed or signaled.
var flagDone = new(parker)

// Set marks the flag done and wakes all waiters. Setting an already-set
// flag is a no-op, so multiple detectors may race safely. After its one
// swap Set never touches the flag again — the memory holding it may be
// recycled as soon as IsSet reports true — and it reads each parker's
// link before signaling it, since a signaled waiter returns its parker to
// the pool at once.
func (f *Flag) Set() {
	for p := f.state.Swap(flagDone); p != nil && p != flagDone; {
		next := p.next
		p.wake <- struct{}{}
		p = next
	}
}

// IsSet reports whether Set has been called.
func (f *Flag) IsSet() bool { return f.state.Load() == flagDone }

// Wait blocks until the flag is set: it pushes a pooled parker onto the
// flag's waiter stack, unless Set got there first, and sleeps until Set
// signals it.
func (f *Flag) Wait() {
	head := f.state.Load()
	if head == flagDone {
		return
	}
	p := parkerPool.Get().(*parker)
	for {
		p.next = head
		if f.state.CompareAndSwap(head, p) {
			break
		}
		if head = f.state.Load(); head == flagDone {
			p.next = nil
			parkerPool.Put(p)
			return
		}
	}
	<-p.wake
	p.next = nil
	parkerPool.Put(p)
}
