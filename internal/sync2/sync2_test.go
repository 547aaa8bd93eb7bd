package sync2

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// spinWait busy-waits up to spin for f before blocking in Wait — the
// spin-then-block shape of the engine's wait loop, minus the polling.
func spinWait(f *Flag, spin time.Duration) {
	deadline := time.Now().Add(spin)
	for time.Now().Before(deadline) {
		if f.IsSet() {
			return
		}
	}
	f.Wait()
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var l SpinLock
	const goroutines = 8
	const iters = 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates => no mutual exclusion)", counter, goroutines*iters)
	}
}

func TestSpinLockTryLock(t *testing.T) {
	var l SpinLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func TestSpinLockUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l SpinLock
	l.Unlock()
}

func TestFlagSetWait(t *testing.T) {
	var f Flag
	if f.IsSet() {
		t.Fatal("new flag reports set")
	}
	done := make(chan struct{})
	go func() {
		f.Wait()
		close(done)
	}()
	time.Sleep(time.Millisecond)
	f.Set()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wait did not return after Set")
	}
	if !f.IsSet() {
		t.Fatal("flag not set after Set")
	}
	f.Wait() // must not block after set
}

func TestFlagDoubleSet(t *testing.T) {
	var f Flag
	f.Set()
	f.Set() // must not panic (close of closed channel)
}

func TestFlagConcurrentSetters(t *testing.T) {
	var f Flag
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Set()
		}()
	}
	wg.Wait()
	if !f.IsSet() {
		t.Fatal("flag not set")
	}
}

func TestFlagSpinWaitFastPath(t *testing.T) {
	var f Flag
	f.Set()
	start := time.Now()
	spinWait(&f, time.Second)
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Fatalf("SpinWait on set flag took %v", el)
	}
}

func TestFlagSpinWaitFallsBackToBlock(t *testing.T) {
	var f Flag
	go func() {
		time.Sleep(5 * time.Millisecond)
		f.Set()
	}()
	spinWait(&f, 100*time.Microsecond) // spin expires, must block then wake
	if !f.IsSet() {
		t.Fatal("returned without flag set")
	}
}

func TestFlagManyWaiters(t *testing.T) {
	var f Flag
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				f.Wait()
			} else {
				spinWait(&f, time.Microsecond)
			}
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	f.Set()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiters did not all wake")
	}
}

// TestFlagReuseAfterWake is the request freelist's pattern: the waiter
// zeroes the flag for its next use the moment Wait returns, while the
// setter may still be walking the waiter stack it swapped out. Under the
// race detector this fails if Set touches the flag after its swap.
func TestFlagReuseAfterWake(t *testing.T) {
	var f Flag
	for i := 0; i < 500; i++ {
		go f.Set()
		f.Wait()
		f = Flag{}
	}
}

// parked spins until f's waiter stack is non-empty: a waiter has pushed
// its parker and is about to sleep on it.
func parked(f *Flag) {
	for p := f.state.Load(); p == nil || p == flagDone; p = f.state.Load() {
		runtime.Gosched()
	}
}

// TestFlagBlockingWaitAllocs pins a steady-state block/wake cycle at zero
// allocations: the parker comes from the pool, not a fresh channel.
func TestFlagBlockingWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var f Flag
	next := make(chan *Flag)
	defer close(next)
	go func() {
		for f := range next {
			parked(f)
			f.Set()
		}
	}()
	cycle := func() {
		f = Flag{}
		next <- &f
		f.Wait()
	}
	cycle() // warm the parker pool
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("block/wake cycle allocates %.2f times, want 0", allocs)
	}
}
