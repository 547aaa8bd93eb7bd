package sched

import (
	"runtime"
	"time"

	"pioman/internal/ptime"
	"pioman/internal/sync2"
	"pioman/internal/topo"
)

// Thread is an application thread scheduled onto simulated cores. It is a
// goroutine that only runs application code while holding a core token, so
// core occupancy — the resource the paper's offloading exploits — is
// modeled faithfully: a computing thread really occupies one core, and a
// node with T threads and C > T cores really has C-T idle cores available
// to run communication tasklets.
//
// Threads are cooperative: they hold their core across Compute and release
// it at Yield/Block/completion, matching Marcel's user-level threads which
// the benchmarks drive through compute/communicate phases.
type Thread struct {
	sched   *Scheduler
	name    string
	grant   chan topo.CoreID
	release chan struct{}
	core    topo.CoreID
	onCore  bool
	done    sync2.Flag
}

// Spawn creates a thread running fn and makes it runnable. fn receives the
// thread handle to drive Compute/Yield/Block; the thread's first
// instruction executes once a core grants it.
func (s *Scheduler) Spawn(name string, fn func(*Thread)) *Thread {
	th := &Thread{
		sched:   s,
		name:    name,
		grant:   make(chan topo.CoreID),
		release: make(chan struct{}),
	}
	s.alive.Add(1)
	go func() {
		th.acquireCore()
		defer func() {
			th.releaseCore()
			s.alive.Add(-1)
			th.done.Set()
		}()
		fn(th)
	}()
	return th
}

// runOn hands core to the thread and parks the worker until the thread
// releases it. Called only by core workers.
func (th *Thread) runOn(core topo.CoreID) {
	th.grant <- core
	<-th.release
}

// acquireCore enqueues the thread and blocks until a core is granted.
func (th *Thread) acquireCore() {
	th.sched.runq <- th
	th.core = <-th.grant
	th.onCore = true
}

// releaseCore returns the core to its worker.
func (th *Thread) releaseCore() {
	if !th.onCore {
		return
	}
	th.onCore = false
	th.release <- struct{}{}
}

// Core returns the core currently granted to the thread.
func (th *Thread) Core() topo.CoreID {
	th.mustHoldCore("Core")
	return th.core
}

// Name returns the thread's diagnostic name.
func (th *Thread) Name() string { return th.name }

// Compute spins for d on the held core, modeling application computation.
// It keeps its processor for the whole spin; a thread that calls HandOff
// first lets a parked core run a posted tasklet meanwhile.
func (th *Thread) Compute(d time.Duration) {
	th.mustHoldCore("Compute")
	ptime.Compute(d)
}

// HandOff lends the thread's processor to queued tasklets before it
// computes. When the scheduler has no idle hook, a core is free and a
// tasklet is queued, it rings the bell and yields once: the Go runtime
// readies the woken worker on this processor, so the worker runs the
// tasklet here and the thread resumes on another processor. The thread
// keeps its core token throughout.
func (th *Thread) HandOff() {
	th.mustHoldCore("HandOff")
	if th.sched.handOff() {
		runtime.Gosched()
	}
}

// Yield releases the core and immediately re-queues for one, giving
// tasklets and other threads a chance to run.
func (th *Thread) Yield() {
	th.mustHoldCore("Yield")
	th.releaseCore()
	th.acquireCore()
}

// Block releases the core, waits for the flag, then re-acquires a core.
// This is the Marcel path where "PIOMan unblocks the corresponding thread
// and asks Marcel to schedule it" (§3.2): the flag is typically a request
// completion set by whichever core detected the event.
func (th *Thread) Block(f *sync2.Flag) {
	th.mustHoldCore("Block")
	th.releaseCore()
	f.Wait()
	th.acquireCore()
}

// Join waits (from any goroutine, without holding a core) for the thread
// to finish.
func (th *Thread) Join() { th.done.Wait() }

// Done reports whether the thread has finished.
func (th *Thread) Done() bool { return th.done.IsSet() }

func (th *Thread) mustHoldCore(op string) {
	if !th.onCore {
		panic("sched: " + op + " called by thread " + th.name + " without a core")
	}
}
