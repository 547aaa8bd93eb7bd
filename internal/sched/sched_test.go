package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/sync2"
	"pioman/internal/topo"
)

func testSched(t *testing.T, cores int) *Scheduler {
	t.Helper()
	s := New(Config{Machine: topo.Machine{Sockets: 1, CoresPerSocket: cores}})
	t.Cleanup(s.Shutdown)
	return s
}

func TestDefaultMachine(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	if s.NumCores() != 8 {
		t.Fatalf("NumCores = %d, want 8 (dual quad Xeon)", s.NumCores())
	}
}

func TestTaskletRunsOnce(t *testing.T) {
	s := testSched(t, 2)
	var runs atomic.Int32
	done := make(chan struct{})
	tl := NewTasklet("t", func(core topo.CoreID) {
		runs.Add(1)
		close(done)
	})
	s.Schedule(tl)
	<-done
	time.Sleep(5 * time.Millisecond)
	if n := runs.Load(); n != 1 {
		t.Fatalf("tasklet ran %d times, want 1", n)
	}
}

func TestTaskletCoalescesWhilePending(t *testing.T) {
	s := testSched(t, 1)
	gate := make(chan struct{})
	var runs atomic.Int32
	// Occupy the only core so the tasklet stays pending.
	blocker := NewTasklet("blocker", func(core topo.CoreID) { <-gate })
	tl := NewTasklet("t", func(core topo.CoreID) { runs.Add(1) })
	s.Schedule(blocker)
	time.Sleep(2 * time.Millisecond) // blocker now running
	for i := 0; i < 10; i++ {
		s.Schedule(tl) // all coalesce into one pending execution
	}
	close(gate)
	time.Sleep(10 * time.Millisecond)
	if n := runs.Load(); n != 1 {
		t.Fatalf("tasklet ran %d times, want 1 (coalesced)", n)
	}
}

// TestTaskletRescheduleWhileRunningRunsAgain also checks that the re-run
// is queued without a ring: a thread holds the other core, so the bell
// has no listener but the tasklet's own worker, and the second run must
// find it as empty as the first run left it.
func TestTaskletRescheduleWhileRunningRunsAgain(t *testing.T) {
	s := testSched(t, 2)
	holding, hold := make(chan struct{}), make(chan struct{})
	holder := s.Spawn("hold", func(*Thread) {
		close(holding)
		<-hold
	})
	defer func() {
		close(hold)
		holder.Join()
	}()
	<-holding
	started := make(chan struct{})
	unblock := make(chan struct{})
	var runs atomic.Int32
	var rang atomic.Bool
	var tl *Tasklet
	tl = NewTasklet("t", func(core topo.CoreID) {
		if runs.Add(1) == 1 {
			select {
			case <-s.bell: // Schedule's own ring, if no core was parked
			default:
			}
			close(started)
			<-unblock
			return
		}
		rang.Store(len(s.bell) > 0)
	})
	s.Schedule(tl)
	<-started
	s.Schedule(tl) // while running: must re-run exactly once more
	s.Schedule(tl) // coalesces with the previous reschedule
	close(unblock)
	deadline := time.Now().Add(time.Second)
	for runs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	if n := runs.Load(); n != 2 {
		t.Fatalf("tasklet ran %d times, want 2", n)
	}
	if rang.Load() {
		t.Fatal("re-queueing the tasklet rang the bell")
	}
}

// TestPostRingsNoBell: Post queues the tasklet and leaves a parked core
// asleep; the next ring wakes it. The scheduler is built without
// workers, so the one parked core is the test's own.
func TestPostRingsNoBell(t *testing.T) {
	s := &Scheduler{
		machine: topo.Machine{Sockets: 1, CoresPerSocket: 1},
		runq:    make(chan *Thread, 1),
		bell:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	woke := make(chan struct{})
	go func() {
		s.park(0)
		close(woke)
	}()
	if !s.Post(NewTasklet("t", func(topo.CoreID) {})) {
		t.Fatal("Post did not queue an idle tasklet")
	}
	if len(s.bell) != 0 {
		t.Fatal("Post rang the bell")
	}
	if !s.hasTasklet() {
		t.Fatal("posted tasklet is not queued")
	}
	select {
	case <-woke:
		t.Fatal("Post woke the parked core")
	default:
	}
	s.Schedule(NewTasklet("u", func(topo.CoreID) {}))
	<-woke
}

// TestComputeHandOffRunsQueuedTasklet is Fig. 5 on a real host: a thread
// posts a tasklet, hands off and computes; the tasklet must run during
// the computation, on the spare core. A goroutine keeps the other
// processor busy, as the peer rank does, so nothing but the hand-off
// puts the woken worker on a processor.
func TestComputeHandOffRunsQueuedTasklet(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2: the computation continues on another processor")
	}
	s := testSched(t, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	time.Sleep(5 * time.Millisecond) // let both cores park
	var computing, sawComputing atomic.Bool
	ran := make(chan struct{})
	tl := NewTasklet("send", func(topo.CoreID) {
		sawComputing.Store(computing.Load())
		close(ran)
	})
	s.Spawn("app", func(th *Thread) {
		computing.Store(true)
		s.Post(tl)
		th.HandOff()
		th.Compute(5 * time.Millisecond)
		computing.Store(false)
	}).Join()
	<-ran
	if !sawComputing.Load() {
		t.Fatal("the queued tasklet ran after the computation, not during it")
	}
}

// TestHandOffDeclines: a thread hands off only with no idle hook, a free
// core and a queued tasklet; each row takes one of the three away.
func TestHandOffDeclines(t *testing.T) {
	for _, row := range []struct {
		name    string
		cores   int
		hook    bool
		tasklet bool
	}{
		{"idle hook installed", 2, true, true},
		{"no core free", 1, false, true},
		{"no tasklet queued", 2, false, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := testSched(t, row.cores)
			gate, entered := make(chan struct{}), make(chan struct{}, 1)
			s.Spawn("app", func(th *Thread) {
				if row.hook {
					// The spare core blocks inside the hook, so it
					// cannot pop the tasklet before handOff looks.
					s.SetIdleHook(func(topo.CoreID) bool {
						select {
						case entered <- struct{}{}:
						default:
						}
						<-gate
						return false
					})
					<-entered
				}
				if row.tasklet {
					s.Post(NewTasklet("t", func(topo.CoreID) {}))
				}
				if s.handOff() {
					t.Error("handOff rang the bell")
				}
			}).Join()
			close(gate)
			s.SetIdleHook(nil)
		})
	}
}

func TestTaskletNeverConcurrent(t *testing.T) {
	s := testSched(t, 4)
	var inside, maxInside atomic.Int32
	var runs atomic.Int32
	tl := NewTasklet("t", func(core topo.CoreID) {
		v := inside.Add(1)
		for {
			m := maxInside.Load()
			if v <= m || maxInside.CompareAndSwap(m, v) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		inside.Add(-1)
		runs.Add(1)
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Schedule(tl)
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().TaskletsRun > 0 && inside.Load() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if m := maxInside.Load(); m > 1 {
		t.Fatalf("tasklet ran on %d cores concurrently", m)
	}
	if runs.Load() == 0 {
		t.Fatal("tasklet never ran")
	}
}

func TestNilTaskletFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTasklet("bad", nil)
}

func TestThreadRunsAndJoins(t *testing.T) {
	s := testSched(t, 2)
	ran := false
	th := s.Spawn("worker", func(th *Thread) {
		th.Compute(10 * time.Microsecond)
		ran = true
	})
	th.Join()
	if !ran {
		t.Fatal("thread body did not run")
	}
	if !th.Done() {
		t.Fatal("Done() false after Join")
	}
}

func TestMoreThreadsThanCores(t *testing.T) {
	s := testSched(t, 2)
	const n = 10
	var done atomic.Int32
	ths := make([]*Thread, n)
	for i := 0; i < n; i++ {
		ths[i] = s.Spawn("w", func(th *Thread) {
			th.Compute(50 * time.Microsecond)
			th.Yield()
			th.Compute(50 * time.Microsecond)
			done.Add(1)
		})
	}
	for _, th := range ths {
		th.Join()
	}
	if done.Load() != n {
		t.Fatalf("completed %d/%d threads", done.Load(), n)
	}
}

func TestCoreOccupancyNeverExceedsCores(t *testing.T) {
	const cores = 3
	s := testSched(t, cores)
	var cur, max atomic.Int32
	const n = 12
	ths := make([]*Thread, n)
	for i := 0; i < n; i++ {
		ths[i] = s.Spawn("w", func(th *Thread) {
			for k := 0; k < 5; k++ {
				v := cur.Add(1)
				for {
					m := max.Load()
					if v <= m || max.CompareAndSwap(m, v) {
						break
					}
				}
				th.Compute(20 * time.Microsecond)
				cur.Add(-1)
				th.Yield()
			}
		})
	}
	for _, th := range ths {
		th.Join()
	}
	if m := max.Load(); m > cores {
		t.Fatalf("%d threads computed concurrently on %d cores", m, cores)
	}
}

func TestThreadBlockWakesOnFlag(t *testing.T) {
	s := testSched(t, 2)
	var f sync2.Flag
	order := make(chan string, 4)
	th := s.Spawn("blocker", func(th *Thread) {
		order <- "before"
		th.Block(&f)
		order <- "after"
	})
	time.Sleep(5 * time.Millisecond)
	select {
	case got := <-order:
		if got != "before" {
			t.Fatalf("got %q", got)
		}
	default:
		t.Fatal("thread never started")
	}
	select {
	case <-order:
		t.Fatal("thread passed Block before flag set")
	default:
	}
	f.Set()
	th.Join()
	if got := <-order; got != "after" {
		t.Fatalf("got %q, want after", got)
	}
}

func TestBlockReleasesCoreForOthers(t *testing.T) {
	// One core: a blocked thread must not starve another thread.
	s := testSched(t, 1)
	var f sync2.Flag
	ranOther := make(chan struct{})
	blocked := s.Spawn("blocked", func(th *Thread) {
		th.Block(&f)
	})
	s.Spawn("other", func(th *Thread) {
		close(ranOther)
	})
	select {
	case <-ranOther:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked thread held the only core")
	}
	f.Set()
	blocked.Join()
}

func TestComputeWithoutCorePanics(t *testing.T) {
	s := testSched(t, 1)
	ch := make(chan *Thread, 1)
	s.Spawn("w", func(t2 *Thread) { ch <- t2 }).Join()
	th := <-ch
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.Compute(time.Microsecond)
}

// TestIdleHookRunsOnIdleCores installs the hook after the cores have
// parked: every core must wake and poll, not only the first the bell
// reaches.
func TestIdleHookRunsOnIdleCores(t *testing.T) {
	s := testSched(t, 2)
	time.Sleep(5 * time.Millisecond) // let both cores park
	var polled [2]atomic.Bool
	s.SetIdleHook(func(core topo.CoreID) bool {
		polled[core].Store(true)
		return false
	})
	deadline := time.Now().Add(5 * time.Second)
	for !(polled[0].Load() && polled[1].Load()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !polled[0].Load() || !polled[1].Load() {
		t.Fatalf("idle hook ran on cores %v, want both", []bool{polled[0].Load(), polled[1].Load()})
	}
	s.SetIdleHook(nil)
}

// TestParkedCoresWakeForTasklets: with no idle hook every core parks, and
// a tasklet scheduled from a foreign goroutine must still run. Then
// back-to-back schedule/complete cycles race the park; a lost wake-up
// hangs the test, so there is no clock in it.
func TestParkedCoresWakeForTasklets(t *testing.T) {
	for _, cores := range []int{1, 4} {
		s := testSched(t, cores)
		time.Sleep(5 * time.Millisecond) // let every core park
		ran := make(chan struct{})
		tl := NewTasklet("t", func(topo.CoreID) { ran <- struct{}{} })
		for i := 0; i < 10000; i++ {
			s.Schedule(tl)
			<-ran
		}
		if n := s.Stats().IdlePolls; n != 0 {
			t.Errorf("%d cores: %d idle polls without a hook", cores, n)
		}
	}
}

func TestIdleHookPreemptedByThread(t *testing.T) {
	s := testSched(t, 1)
	s.SetIdleHook(func(core topo.CoreID) bool { return true }) // always "working"
	done := make(chan struct{})
	s.Spawn("t", func(th *Thread) { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("greedy idle hook starved the application thread")
	}
	s.SetIdleHook(nil)
}

func TestTimerTaskletFires(t *testing.T) {
	s := New(Config{
		Machine:     topo.Machine{Sockets: 1, CoresPerSocket: 2},
		TimerPeriod: time.Millisecond,
	})
	defer s.Shutdown()
	var fires atomic.Int32
	s.SetTimerTasklet(NewTasklet("tick", func(core topo.CoreID) { fires.Add(1) }))
	deadline := time.Now().Add(2 * time.Second)
	for fires.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fires.Load() < 3 {
		t.Fatalf("timer tasklet fired %d times, want >= 3", fires.Load())
	}
	if s.Stats().TimerTicks < 3 {
		t.Fatalf("TimerTicks = %d", s.Stats().TimerTicks)
	}
}

func TestIdleCoresCounter(t *testing.T) {
	s := testSched(t, 4)
	// With no threads, all cores pass through idle; the instantaneous
	// count fluctuates but must be observable > 0 and <= 4.
	deadline := time.Now().Add(time.Second)
	sawIdle := false
	for time.Now().Before(deadline) {
		n := s.IdleCores()
		if n < 0 || n > 4 {
			t.Fatalf("IdleCores = %d out of range", n)
		}
		if n > 0 {
			sawIdle = true
			break
		}
	}
	if !sawIdle {
		t.Fatal("never observed an idle core on an empty scheduler")
	}
}

func TestShutdownWithLiveThreadPanics(t *testing.T) {
	s := New(Config{Machine: topo.Machine{Sockets: 1, CoresPerSocket: 1}})
	var f sync2.Flag
	th := s.Spawn("stuck", func(th *Thread) { th.Block(&f) })
	time.Sleep(2 * time.Millisecond)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on Shutdown with live threads")
			}
		}()
		s.Shutdown()
	}()
	f.Set()
	th.Join()
	s.Shutdown()
}

func TestStatsCount(t *testing.T) {
	s := testSched(t, 2)
	th := s.Spawn("w", func(th *Thread) { th.Compute(time.Microsecond) })
	th.Join()
	done := make(chan struct{})
	s.Schedule(NewTasklet("t", func(core topo.CoreID) { close(done) }))
	<-done
	st := s.Stats()
	if st.ThreadsRun == 0 {
		t.Error("ThreadsRun = 0")
	}
	if st.TaskletsRun == 0 {
		t.Error("TaskletsRun = 0")
	}
	if st.ThreadsAlive != 0 {
		t.Errorf("ThreadsAlive = %d, want 0", st.ThreadsAlive)
	}
}

func TestScheduleAfterShutdownIsNoop(t *testing.T) {
	s := New(Config{Machine: topo.Machine{Sockets: 1, CoresPerSocket: 1}})
	s.Shutdown()
	s.Schedule(NewTasklet("late", func(core topo.CoreID) {}))
	s.Shutdown() // double shutdown is fine
}
