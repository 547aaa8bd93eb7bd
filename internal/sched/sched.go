// Package sched is the Marcel analog: a two-level cooperative scheduler
// that multiplexes application threads and communication tasklets over a
// fixed set of simulated cores.
//
// Each simulated core is a dedicated worker goroutine. Application threads
// are goroutines that must hold a core token to run; while a thread holds
// the core its worker is parked, so the number of runnable goroutines never
// exceeds the number of simulated cores (plus the fabric timer). The worker
// loop priority order follows the paper (§3.1):
//
//  1. tasklets — "executed as soon as the scheduler reaches a point where
//     it is safe to let them run";
//  2. runnable application threads;
//  3. the idle hook — PIOMan polling: "as Marcel schedules PIOMan each
//     time a core is idle, leaving a core idle will boil down to a busy
//     waiting until PIOMan wakes up a thread".
//
// A core with no idle hook parks until a thread arrives or the bell
// rings, so an idle node costs no CPU and no timer wake-ups. Schedule
// rings the bell; Post does not, because a tasklet posted by a thread
// that will poll in its own wait needs no second processor. A thread
// about to compute calls HandOff instead: it rings once and yields its
// processor, so the woken core runs the tasklet while the computation
// continues on another processor.
//
// A timer goroutine periodically schedules a registered tasklet even when
// every core is busy, modeling Marcel's timer-interrupt trigger.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/sync2"
	"pioman/internal/topo"
)

// IdleHook is invoked by idle cores. It returns true if it performed work;
// returning false lets the worker back off briefly.
type IdleHook func(core topo.CoreID) bool

// Config parameterizes a Scheduler.
type Config struct {
	// Machine is the node topology; defaults to the paper's dual
	// quad-core Xeon when zero.
	Machine topo.Machine
	// TimerPeriod is the interval of the timer trigger; 0 disables it.
	TimerPeriod time.Duration
}

// idleSpin is how long an idle core busy-polls the hook before yielding
// to the Go runtime; it bounds the CPU burned per idle pass.
const idleSpin = 5 * time.Microsecond

// Stats exposes scheduler activity counters (monotonic, atomic reads).
type Stats struct {
	TaskletsRun  uint64
	ThreadsRun   uint64
	IdlePolls    uint64
	TimerTicks   uint64
	ThreadsAlive int64
}

// Scheduler owns the simulated cores of one node.
type Scheduler struct {
	machine topo.Machine

	taskletMu   sync2.SpinLock
	tasklets    []*Tasklet
	taskletHead int

	runq chan *Thread
	// bell wakes cores parked with no idle hook: enqueueTasklet and
	// SetIdleHook raise it with sync2.Notify.
	bell chan struct{}

	idleHook atomic.Pointer[IdleHook]
	timerT   atomic.Pointer[Tasklet]

	busyCores atomic.Int32

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	nTasklets  atomic.Uint64
	nThreads   atomic.Uint64
	nIdlePolls atomic.Uint64
	nTicks     atomic.Uint64
	alive      atomic.Int64
}

// New creates and starts a scheduler with one worker per core.
func New(cfg Config) *Scheduler {
	if cfg.Machine.NumCores() == 0 {
		cfg.Machine = topo.DualQuadXeon()
	}
	if err := cfg.Machine.Validate(); err != nil {
		panic(err)
	}
	s := &Scheduler{
		machine: cfg.Machine,
		runq:    make(chan *Thread, 4096),
		bell:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	for _, c := range s.machine.Cores() {
		s.wg.Add(1)
		go s.worker(c)
	}
	if cfg.TimerPeriod > 0 {
		s.wg.Add(1)
		go s.timerLoop(cfg.TimerPeriod)
	}
	return s
}

// Machine returns the node topology.
func (s *Scheduler) Machine() topo.Machine { return s.machine }

// NumCores returns the number of simulated cores.
func (s *Scheduler) NumCores() int { return s.machine.NumCores() }

// IdleCores returns the number of cores not currently occupied by an
// application thread or a tasklet — i.e. cores available for polling.
// PIOMan uses it to choose between active polling and the blocking-call
// fallback ("Pioman is able to choose the most appropriate method
// depending on the context", §3.1).
func (s *Scheduler) IdleCores() int {
	n := s.machine.NumCores() - int(s.busyCores.Load())
	if n < 0 {
		n = 0
	}
	return n
}

// SetIdleHook installs the function idle cores run; nil clears it.
// Parked cores wake to run a new hook.
func (s *Scheduler) SetIdleHook(h IdleHook) {
	if h == nil {
		s.idleHook.Store(nil)
		return
	}
	s.idleHook.Store(&h)
	sync2.Notify(s.bell)
}

// SetTimerTasklet installs the tasklet scheduled on every timer tick.
func (s *Scheduler) SetTimerTasklet(t *Tasklet) { s.timerT.Store(t) }

// Schedule marks t for execution and rings the bell, so a parked core
// wakes to run it. It is safe to call from any goroutine, including
// tasklet bodies and idle hooks.
func (s *Scheduler) Schedule(t *Tasklet) {
	if s.Post(t) {
		sync2.Notify(s.bell)
	}
}

// Post marks t for execution like Schedule but rings no bell: a parked
// core stays asleep, and t runs when a core next looks at the queue — a
// worker whose thread or tasklet returns, an idle hook's pass, another
// Schedule's ring, or a thread's HandOff. It reports whether t was
// queued.
func (s *Scheduler) Post(t *Tasklet) bool {
	if s.stopped.Load() || !t.schedule() {
		return false
	}
	s.enqueueTasklet(t)
	return true
}

// enqueueTasklet and popTasklet keep the tasklet queue head-indexed, like
// the engine's send queue: re-slicing past a popped head would give
// up the array's front, so a queue that empties and refills once per
// kick would allocate a fresh array every time.
func (s *Scheduler) enqueueTasklet(t *Tasklet) {
	s.taskletMu.Lock()
	s.tasklets, s.taskletHead = sync2.CompactQueue(s.tasklets, s.taskletHead)
	s.tasklets = append(s.tasklets, t)
	s.taskletMu.Unlock()
}

// hasTasklet reports whether a tasklet waits in the queue.
func (s *Scheduler) hasTasklet() bool {
	s.taskletMu.Lock()
	defer s.taskletMu.Unlock()
	return len(s.tasklets) > s.taskletHead
}

func (s *Scheduler) popTasklet() *Tasklet {
	s.taskletMu.Lock()
	defer s.taskletMu.Unlock()
	if s.taskletHead == len(s.tasklets) {
		return nil
	}
	t := s.tasklets[s.taskletHead]
	s.tasklets[s.taskletHead] = nil
	if s.taskletHead++; s.taskletHead == len(s.tasklets) {
		s.tasklets, s.taskletHead = s.tasklets[:0], 0
	}
	return t
}

// worker is the per-core loop.
func (s *Scheduler) worker(core topo.CoreID) {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		default:
		}

		// 1. Tasklets first: highest priority.
		if t := s.popTasklet(); t != nil {
			s.busyCores.Add(1)
			requeue := t.execute(core)
			s.busyCores.Add(-1)
			if requeue {
				// This worker pops it on its next loop: a ring would
				// only wake another core for nothing.
				s.enqueueTasklet(t)
			}
			s.nTasklets.Add(1)
			continue
		}

		// 2. Runnable application threads.
		select {
		case th := <-s.runq:
			s.runThread(core, th)
			continue
		default:
		}

		// 3. Idle: run the PIOMan hook (busy wait), else park.
		hp := s.idleHook.Load()
		if hp == nil {
			s.park(core)
		} else if !s.idlePhase(core, *hp) {
			// Nothing to do at all: yield so the host isn't saturated
			// when the engine is quiescent.
			runtime.Gosched()
		}
	}
}

// runThread lends core to th until th releases it.
func (s *Scheduler) runThread(core topo.CoreID, th *Thread) {
	s.nThreads.Add(1)
	s.busyCores.Add(1)
	th.runOn(core)
	s.busyCores.Add(-1)
}

// handOff rings the bell for a thread about to compute, and reports
// whether it rang: only with no idle hook (an idle hook's cores already
// poll), a core free to wake, and a tasklet for it to run.
func (s *Scheduler) handOff() bool {
	if s.idleHook.Load() != nil || s.IdleCores() == 0 || !s.hasTasklet() {
		return false
	}
	sync2.Notify(s.bell)
	return true
}

// park blocks a core that has no idle hook until a thread, a ring of the
// bell or shutdown; nothing wakes it on a timer. A tasklet enqueued
// between the worker's queue check and this select still finds the bell
// raised. One ring wakes one core, so a core woken to a newly installed
// hook passes the ring on: every parked core must start polling.
func (s *Scheduler) park(core topo.CoreID) {
	select {
	case th := <-s.runq:
		s.runThread(core, th)
	case <-s.bell:
		if s.idleHook.Load() != nil {
			sync2.Notify(s.bell)
		}
	case <-s.stop:
	}
}

// idlePhase busy-polls the idle hook for up to idleSpin, returning
// early if a tasklet or thread shows up. Reports whether any hook call did
// work.
func (s *Scheduler) idlePhase(core topo.CoreID, hook IdleHook) bool {
	deadline := time.Now().Add(idleSpin)
	worked := false
	for {
		s.nIdlePolls.Add(1)
		if hook(core) {
			worked = true
		}
		// Higher-priority work preempts the idle phase.
		if s.hasTasklet() || len(s.runq) > 0 || s.stopped.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return worked
		}
	}
}

// timerLoop schedules the timer tasklet at the configured period,
// modeling Marcel's timer-interrupt trigger for PIOMan.
func (s *Scheduler) timerLoop(period time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.nTicks.Add(1)
			if t := s.timerT.Load(); t != nil {
				s.Schedule(t)
			}
		}
	}
}

// Stats returns a snapshot of activity counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		TaskletsRun:  s.nTasklets.Load(),
		ThreadsRun:   s.nThreads.Load(),
		IdlePolls:    s.nIdlePolls.Load(),
		TimerTicks:   s.nTicks.Load(),
		ThreadsAlive: s.alive.Load(),
	}
}

// Shutdown stops all workers. Outstanding threads must have completed;
// Shutdown panics if any are alive, because a thread blocked waiting for a
// core would deadlock silently otherwise.
func (s *Scheduler) Shutdown() {
	if n := s.alive.Load(); n > 0 {
		panic(fmt.Sprintf("sched: Shutdown with %d threads alive", n))
	}
	if s.stopped.Swap(true) {
		return
	}
	close(s.stop)
	s.wg.Wait()
}
