// Package piom is the PIOMan analog: a generic event server that
// guarantees communication progress by executing library-supplied progress
// callbacks on whatever resources the node can spare.
//
// PIOMan itself is network-agnostic (§3.2): the communication library
// (internal/core, the NewMadeleine analog) registers Sources — callbacks
// that poll NICs and push pending submissions — and the server arranges for
// them to run on four triggers, mirroring §3.1:
//
//   - core idleness: the server installs itself as the scheduler's idle
//     hook, so every idle core busy-polls the sources;
//   - timer ticks: a tasklet is scheduled periodically even when all cores
//     are busy;
//   - explicit waits: threads waiting on a request poll inline ("the
//     message is sent inside the wait function", §3.2);
//   - blocking calls: when no core is idle, a dedicated watcher goroutine
//     performs a blocking receive (the specialized kernel thread of [10])
//     so that rendezvous handshakes still progress without stealing CPU
//     from computing threads.
//
// The library's own event — a request registered by Isend or Irecv — is
// posted (Post), not rung: the progress tasklet is queued without waking
// a parked core, because the calling thread polls in its wait anyway. A
// thread that leaves to compute instead hands its processor to the
// queued tasklet (sched.Thread.HandOff).
package piom

import (
	"runtime"
	"sync/atomic"
	"time"

	"pioman/internal/sched"
	"pioman/internal/sync2"
	"pioman/internal/topo"
)

// Source is one progress engine registered with the server. Implementations
// must be safe for concurrent calls: the server invokes Progress from many
// cores and relies on the source's internal try-locking to keep each event
// processed under mutual exclusion (§2.1).
type Source interface {
	// Progress advances communication state (polls NICs, submits pending
	// requests) and reports whether any work was done. core identifies
	// the executing core for cost attribution, or -1 when called from a
	// non-core context (blocking watcher).
	Progress(core topo.CoreID) bool
	// BlockingWait parks until an event arrives (or the timeout expires)
	// and processes it. It reports whether the park itself woke on an
	// event; work a pass before the park found does not count. The
	// result feeds Stats.BlockingWakeups and nothing else. It must not
	// spin.
	BlockingWait(timeout time.Duration) bool
}

// Request is one asynchronous communication request tracked by the event
// server. The engine embeds it into its send/receive state; completion is
// signaled exactly once by whichever core detects the event. A request
// may complete successfully (Complete) or with an error (CompleteErr) —
// the failure-bounding half of the cluster runtime's contract: a request
// whose peer died still completes, it just carries the reason.
type Request struct {
	done sync2.Flag
	// err is the request's failure, written before done.Set (whose
	// release/acquire ordering publishes it) and read only after the
	// completion flag is observed set.
	err error
}

// Complete marks the request done and wakes waiters. Idempotent.
func (r *Request) Complete() { r.done.Set() }

// CompleteErr marks the request done with a failure and wakes waiters.
// Waiters observe completion exactly as for Complete; Err reports the
// failure afterwards. Idempotent — the first completion (of either kind)
// wins.
func (r *Request) CompleteErr(err error) {
	if r.done.IsSet() {
		return
	}
	r.err = err
	r.Complete()
}

// Err returns the failure the request completed with, or nil for a
// successful (or still incomplete) request. Valid once Completed reports
// true; the completion flag's ordering makes the read safe cross-core.
func (r *Request) Err() error {
	if !r.done.IsSet() {
		return nil
	}
	return r.err
}

// Completed reports whether the request has finished.
func (r *Request) Completed() bool { return r.done.IsSet() }

// Flag exposes the completion flag for thread blocking.
func (r *Request) Flag() *sync2.Flag { return &r.done }

// Config parameterizes a Server. The timer trigger's period belongs to
// the scheduler (sched.Config.TimerPeriod); the server only supplies the
// tasklet each tick schedules.
type Config struct {
	// EnableIdleHook installs the server as the scheduler idle hook
	// (active polling on idle cores). On for the multithreaded engine.
	EnableIdleHook bool
	// EnableBlocking starts one watcher goroutine per source that blocks
	// on the NIC when no core is idle.
	EnableBlocking bool
}

// hostTimings derives, once per server, the two waiting parameters that
// depend on nothing but the host and the polling mode — PIOMan choosing
// "the most appropriate method depending on the context" (§3.1), where
// the context is how many processors the Go scheduler runs
// (runtime.GOMAXPROCS, not runtime.NumCPU: a GOMAXPROCS=1 run on a wide
// host has one processor to spin on, not many) and whether idle cores
// poll.
//
// With active polling on and ≥4 processors there are cores to burn: a
// waiting thread spins 300µs, which catches the common few-µs completion
// without a scheduler round trip, and the watcher is only a backstop
// re-checking idleness every 100µs. Otherwise the spin is 50µs, then the
// thread blocks and releases its core. On a rail that polls for itself
// (shmfab) the spinner never leaves its processor, so every µs past the
// common completion time is taken from the peer rank or a computing
// sibling thread; on a goroutine-fed rail (tcpfab, udpfab) the spin is
// cooperative and the budget only bounds how long a wait for a genuinely
// late message keeps a processor cycling through yields. And the watcher
// is then the only progress made while no thread sits in a wait's spin
// phase — every thread computing (the overlap case) or blocked past its
// spin budget — so its cadence tightens to 50µs, halving the worst-case
// reaction to an event that lands just after a timeout expired, without
// measurable idle cost (it sleeps inside the blocking receive either
// way).
func hostTimings(idleHook bool) (waitSpin, watchCadence time.Duration) {
	if idleHook && runtime.GOMAXPROCS(0) >= 4 {
		return 300 * time.Microsecond, 100 * time.Microsecond
	}
	return 50 * time.Microsecond, 50 * time.Microsecond
}

// Stats counts server activity.
type Stats struct {
	Polls           uint64 // Progress passes executed
	Worked          uint64 // passes that did work
	BlockingWakeups uint64 // blocking-watcher parks that woke on an event
}

// Server coordinates progress for one node.
type Server struct {
	cfg Config
	// waitSpin and watchCadence are hostTimings' derivation, fixed at
	// construction.
	waitSpin, watchCadence time.Duration

	sch *sched.Scheduler
	// srcs is copy-on-write: Register publishes a fresh slice, so Poll —
	// the body of every idle spin and every wait's spin — reads it with
	// one atomic load instead of a lock round trip.
	srcs  atomic.Pointer[[]Source]
	tl    *sched.Tasklet
	stop  chan struct{}
	done  atomic.Bool
	polls atomic.Uint64
	work  atomic.Uint64
	bwake atomic.Uint64
}

// NewServer creates a server bound to one node's scheduler and installs its
// triggers according to cfg.
func NewServer(sch *sched.Scheduler, cfg Config) *Server {
	s := &Server{cfg: cfg, sch: sch, stop: make(chan struct{})}
	s.srcs.Store(new([]Source))
	s.waitSpin, s.watchCadence = hostTimings(cfg.EnableIdleHook)
	s.tl = sched.NewTasklet("piom.progress", func(core topo.CoreID) {
		s.Poll(core)
	})
	if cfg.EnableIdleHook {
		sch.SetIdleHook(func(core topo.CoreID) bool { return s.Poll(core) })
	}
	sch.SetTimerTasklet(s.tl)
	return s
}

// Register adds a source. Sources registered after watchers start are
// picked up on the next pass but do not get a dedicated blocking watcher;
// register all sources before calling Start.
func (s *Server) Register(src Source) {
	for {
		old := s.srcs.Load()
		next := append((*old)[:len(*old):len(*old)], src)
		if s.srcs.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Start launches the blocking watchers (if enabled).
func (s *Server) Start() {
	if !s.cfg.EnableBlocking {
		return
	}
	for _, src := range *s.srcs.Load() {
		go s.watch(src)
	}
}

// Stop halts watchers and detaches from the scheduler.
func (s *Server) Stop() {
	if s.done.Swap(true) {
		return
	}
	close(s.stop)
	s.sch.SetIdleHook(nil)
	s.sch.SetTimerTasklet(nil)
}

// Poll runs one progress pass over all sources on the calling core,
// returning whether any source did work. It is the body of the idle hook,
// of the timer tasklet, and of inline wait polling.
func (s *Server) Poll(core topo.CoreID) bool {
	s.polls.Add(1)
	worked := false
	for _, src := range *s.srcs.Load() {
		if src.Progress(core) {
			worked = true
		}
	}
	if worked {
		s.work.Add(1)
	}
	return worked
}

// WaitSpin is how long a thread waiting on a request should poll inline
// before blocking: the host-derived budget every engine wait spends.
func (s *Server) WaitSpin() time.Duration { return s.waitSpin }

// Post queues the progress tasklet right after a request is registered
// ("the asynchronous send actually only registers the request in a work
// list and generates an event", §2.1). It wakes no parked core: a busy
// or idle-polling core picks the tasklet up, or the registering thread
// polls in its wait, or hands its processor off before it computes.
func (s *Server) Post() { s.sch.Post(s.tl) }

// watch is the blocking watcher loop for one source: engaged only while no
// core is idle, exactly as §3.2 describes rendezvous management.
func (s *Server) watch(src Source) {
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if s.cfg.EnableIdleHook && s.sch.IdleCores() > 0 {
			// Active polling owns progress; stand by.
			time.Sleep(s.watchCadence)
			continue
		}
		if src.BlockingWait(s.watchCadence) {
			s.bwake.Add(1)
		}
	}
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Polls:           s.polls.Load(),
		Worked:          s.work.Load(),
		BlockingWakeups: s.bwake.Load(),
	}
}
