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
func (s *Scheduler) SetIdleHook(h IdleHook) {
	if h == nil {
		s.idleHook.Store(nil)
		return
	}
	s.idleHook.Store(&h)
}

// SetTimerTasklet installs the tasklet scheduled on every timer tick.
func (s *Scheduler) SetTimerTasklet(t *Tasklet) { s.timerT.Store(t) }

// Schedule marks t for execution. It is safe to call from any goroutine,
// including tasklet bodies and idle hooks.
func (s *Scheduler) Schedule(t *Tasklet) {
	if s.stopped.Load() {
		return
	}
	if t.schedule() {
		s.enqueueTasklet(t)
	}
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
	// One reusable timer per worker for idlePhase's timed waits: a
	// time.After there would allocate a fresh timer every 100µs on
	// every idle core, a steady background churn the zero-allocation
	// hot path would drown in.
	idleTimer := time.NewTimer(time.Hour)
	if !idleTimer.Stop() {
		<-idleTimer.C
	}
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
				s.enqueueTasklet(t)
			}
			s.nTasklets.Add(1)
			continue
		}

		// 2. Runnable application threads.
		select {
		case th := <-s.runq:
			s.nThreads.Add(1)
			s.busyCores.Add(1)
			th.runOn(core)
			s.busyCores.Add(-1)
			continue
		default:
		}

		// 3. Idle: run the PIOMan hook (busy wait), else back off.
		worked := s.idlePhase(core, idleTimer)
		if !worked {
			// Nothing to do at all: yield so the host isn't saturated
			// when the engine is quiescent.
			runtime.Gosched()
		}
	}
}

// idlePhase busy-polls the idle hook for up to idleSpin, returning
// early if a tasklet or thread shows up. Reports whether any hook call did
// work. idleTimer is the worker's reusable timer; idlePhase leaves it
// stopped and drained.
func (s *Scheduler) idlePhase(core topo.CoreID, idleTimer *time.Timer) bool {
	hp := s.idleHook.Load()
	if hp == nil {
		// No hook (sequential mode): wait for work without burning CPU.
		idleTimer.Reset(100 * time.Microsecond)
		defer func() {
			// The timer is owned by this goroutine, so a stop plus
			// non-blocking drain leaves it clean for the next Reset
			// whether or not it fired during the select.
			if !idleTimer.Stop() {
				select {
				case <-idleTimer.C:
				default:
				}
			}
		}()
		select {
		case th := <-s.runq:
			s.nThreads.Add(1)
			s.busyCores.Add(1)
			th.runOn(core)
			s.busyCores.Add(-1)
			return true
		case <-s.stop:
			return true
		case <-idleTimer.C:
			return true // timed poll of the queues counts as progress
		}
	}
	hook := *hp
	deadline := time.Now().Add(idleSpin)
	worked := false
	for {
		s.nIdlePolls.Add(1)
		if hook(core) {
			worked = true
		}
		// Higher-priority work preempts the idle phase.
		s.taskletMu.Lock()
		hasTasklet := len(s.tasklets) > s.taskletHead
		s.taskletMu.Unlock()
		if hasTasklet || len(s.runq) > 0 || s.stopped.Load() {
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
