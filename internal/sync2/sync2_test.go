package sync2

import (
	"sync"
	"testing"
	"time"
)

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
	f.spinWait(time.Second)
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
	f.spinWait(100 * time.Microsecond) // spin expires, must block then wake
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
				f.spinWait(time.Microsecond)
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
