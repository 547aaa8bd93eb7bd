package piom

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/sched"
	"pioman/internal/topo"
)

// fakeSource is a controllable Source.
type fakeSource struct {
	progressed atomic.Int64
	blocked    atomic.Int64
	work       atomic.Int64 // pending work units consumed by Progress
	blockCh    chan struct{}
}

func newFakeSource() *fakeSource {
	return &fakeSource{blockCh: make(chan struct{}, 64)}
}

func (f *fakeSource) Progress(core topo.CoreID) bool {
	f.progressed.Add(1)
	for {
		n := f.work.Load()
		if n <= 0 {
			return false
		}
		if f.work.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (f *fakeSource) BlockingWait(timeout time.Duration) bool {
	f.blocked.Add(1)
	select {
	case <-f.blockCh:
		return true
	case <-time.After(timeout):
		return false
	}
}

func newSched(t *testing.T, cores int) *sched.Scheduler {
	t.Helper()
	s := sched.New(sched.Config{Machine: topo.Machine{Sockets: 1, CoresPerSocket: cores}})
	t.Cleanup(s.Shutdown)
	return s
}

func TestRequestLifecycle(t *testing.T) {
	var r Request
	if r.Completed() {
		t.Fatal("fresh request completed")
	}
	r.Complete()
	r.Complete() // idempotent
	if !r.Completed() {
		t.Fatal("not completed after Complete")
	}
	r.CompleteErr(errors.New("late")) // the first completion wins
	if r.Err() != nil {
		t.Fatalf("Err = %v after a successful completion", r.Err())
	}
	r.Flag().Wait() // must not block
}

// TestHostTimingsFollowGOMAXPROCS pins the derivation of the wait spin
// and the watcher cadence from the processors the Go scheduler runs, not
// the CPUs the host has: with one P there is no core to burn, so even
// with the idle hook on a server takes the small-host 50µs budget and
// 50µs cadence.
func TestHostTimingsFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv := NewServer(newSched(t, 2), Config{EnableIdleHook: true})
	defer srv.Stop()
	if got := srv.WaitSpin(); got != 50*time.Microsecond {
		t.Errorf("WaitSpin = %v under GOMAXPROCS=1, want 50µs", got)
	}
	if srv.watchCadence != 50*time.Microsecond {
		t.Errorf("watcher cadence = %v under GOMAXPROCS=1, want 50µs", srv.watchCadence)
	}
}

func TestIdleCoresPollSources(t *testing.T) {
	sch := newSched(t, 2)
	srv := NewServer(sch, Config{EnableIdleHook: true})
	defer srv.Stop()
	src := newFakeSource()
	srv.Register(src)
	deadline := time.Now().Add(time.Second)
	for src.progressed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if src.progressed.Load() == 0 {
		t.Fatal("idle cores never polled the source")
	}
	if srv.Stats().Polls == 0 {
		t.Fatal("Stats.Polls = 0")
	}
}

func TestNoIdleHookWhenDisabled(t *testing.T) {
	sch := newSched(t, 2)
	srv := NewServer(sch, Config{EnableIdleHook: false})
	defer srv.Stop()
	src := newFakeSource()
	srv.Register(src)
	time.Sleep(20 * time.Millisecond)
	if n := src.progressed.Load(); n != 0 {
		t.Fatalf("source progressed %d times with idle hook disabled", n)
	}
}

func TestScheduleRunsTasklet(t *testing.T) {
	sch := newSched(t, 2)
	srv := NewServer(sch, Config{})
	defer srv.Stop()
	src := newFakeSource()
	srv.Register(src)
	srv.Schedule()
	deadline := time.Now().Add(time.Second)
	for src.progressed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if src.progressed.Load() == 0 {
		t.Fatal("scheduled tasklet never polled")
	}
}

func TestBlockingWatcherEngagesWhenNoCoreIdle(t *testing.T) {
	sch := newSched(t, 1)
	srv := NewServer(sch, Config{EnableIdleHook: true, EnableBlocking: true})
	defer srv.Stop()
	src := newFakeSource()
	srv.Register(src)
	srv.Start()

	// Occupy the only core with computation so IdleCores drops to 0.
	stop := make(chan struct{})
	th := sch.Spawn("hog", func(th *sched.Thread) {
		for {
			select {
			case <-stop:
				return
			default:
				th.Compute(200 * time.Microsecond)
			}
		}
	})
	// Feed the blocking channel; the watcher should consume.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().BlockingWakeups == 0 && time.Now().Before(deadline) {
		select {
		case src.blockCh <- struct{}{}:
		default:
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	th.Join()
	if srv.Stats().BlockingWakeups == 0 {
		t.Fatal("blocking watcher never processed an event while cores were busy")
	}
}

func TestBlockingWatcherStandsByWhenIdle(t *testing.T) {
	sch := newSched(t, 4) // plenty of idle cores
	srv := NewServer(sch, Config{EnableIdleHook: true, EnableBlocking: true})
	defer srv.Stop()
	src := newFakeSource()
	srv.Register(src)
	srv.Start()
	time.Sleep(20 * time.Millisecond)
	// With idle cores available, the watcher must not be the one
	// consuming events: BlockingWait calls should be zero (it only
	// checks idleness and sleeps).
	if n := src.blocked.Load(); n != 0 {
		t.Fatalf("watcher performed %d blocking waits despite idle cores", n)
	}
}

func TestStopIsIdempotentAndDetaches(t *testing.T) {
	sch := newSched(t, 2)
	srv := NewServer(sch, Config{EnableIdleHook: true, EnableBlocking: true})
	src := newFakeSource()
	srv.Register(src)
	srv.Start()
	srv.Stop()
	srv.Stop()
	n := src.progressed.Load()
	time.Sleep(10 * time.Millisecond)
	// A few in-flight polls may land right after Stop; it must settle.
	n2 := src.progressed.Load()
	time.Sleep(10 * time.Millisecond)
	if got := src.progressed.Load(); got != n2 && got > n+100 {
		t.Fatalf("source still being polled after Stop (%d -> %d)", n, got)
	}
}

func TestPollAggregatesWork(t *testing.T) {
	sch := newSched(t, 1)
	srv := NewServer(sch, Config{})
	defer srv.Stop()
	a, b := newFakeSource(), newFakeSource()
	srv.Register(a)
	srv.Register(b)
	b.work.Store(1)
	if !srv.Poll(0) {
		t.Fatal("Poll missed work in second source")
	}
	if srv.Poll(0) {
		t.Fatal("Poll reported phantom work")
	}
	st := srv.Stats()
	if st.Polls != 2 || st.Worked != 1 {
		t.Fatalf("stats %+v, want Polls=2 Worked=1", st)
	}
}
