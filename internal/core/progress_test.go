package core

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/sched"
)

// TestBlockingWaitHandsOffUnderHeldPollLock pins the woken slot's
// hand-off: a watcher that wakes on a frame while another core holds
// pollLock must not wait for the lock, and must not park on the rail for
// its timeout either. It leaves the frame in the slot and returns, and
// the first pass that wins pollLock afterwards delivers it.
func TestBlockingWaitHandsOffUnderHeldPollLock(t *testing.T) {
	c := newCluster(t, 2, withMode(Sequential))
	e := c.Nodes[0].Eng
	buf := make([]byte, 5)
	r := e.Irecv(1, 7, buf)
	c.run(1, func(th *sched.Thread) {
		s := c.Nodes[1].Eng.Isend(0, 7, []byte("hello"))
		c.Nodes[1].Eng.WaitSend(s, th)
	})

	e.pollLock.Lock()
	const timeout = time.Hour
	start := time.Now()
	woke := e.BlockingWait(timeout)
	took := time.Since(start)
	if !woke || took >= timeout {
		t.Fatalf("BlockingWait = %v after %v with a frame on the rail and pollLock held", woke, took)
	}
	if e.woken.Load() == nil {
		t.Fatal("the woken frame is not in the slot")
	}
	if r.req.Completed() {
		t.Fatal("the frame was delivered while another core held pollLock")
	}
	e.pollLock.Unlock()

	if !e.Progress(-1) {
		t.Fatal("the first pass after the unlock did no work")
	}
	if !r.req.Completed() || !bytes.Equal(buf[:r.Len()], []byte("hello")) {
		t.Fatalf("the first pass after the unlock did not deliver the frame: completed=%v buf=%q", r.req.Completed(), buf[:r.Len()])
	}
	if e.woken.Load() != nil {
		t.Fatal("the slot still holds a packet after delivery")
	}
}

// TestBlockingWaitConcurrentCallersDeliverOnce runs two BlockingWait
// callers on one engine while 1 000 eager frames arrive, each for its
// own posted receive: a frame delivered twice would find no receive and
// land in the unexpected pool, and a frame lost in the hand-off would
// leave its receive pending. A third goroutine stands in for a poller
// mid-drain, holding pollLock in stretches, so a caller often wakes on a
// frame while the slot is still full.
func TestBlockingWaitConcurrentCallersDeliverOnce(t *testing.T) {
	c := newCluster(t, 2, withMode(Sequential), withStrategy("fifo"))
	e := c.Nodes[0].Eng
	const n = 1000
	bufs := make([][]byte, n)
	recvs := make([]*RecvReq, n)
	for i := range recvs {
		bufs[i] = make([]byte, 8)
		recvs[i] = e.Irecv(1, i, bufs[i])
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e.BlockingWait(time.Millisecond)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			e.pollLock.Lock()
			time.Sleep(20 * time.Microsecond)
			e.pollLock.Unlock()
			runtime.Gosched()
		}
	}()
	c.run(1, func(th *sched.Thread) {
		sends := make([]*SendReq, n)
		for i := range sends {
			sends[i] = c.Nodes[1].Eng.Isend(0, i, payload(8, byte(i)))
		}
		for _, s := range sends {
			c.Nodes[1].Eng.WaitSend(s, th)
		}
	})
	allDone := make(chan struct{})
	go func() {
		for _, r := range recvs {
			r.req.Flag().Wait()
		}
		close(allDone)
	}()
	select {
	case <-allDone:
	case <-time.After(30 * time.Second):
	}
	stop.Store(true)
	wg.Wait()

	pending := 0
	for _, r := range recvs {
		if !r.req.Completed() {
			pending++
		}
	}
	if pending > 0 {
		t.Fatalf("%d of %d receives never completed: frames lost in the hand-off", pending, n)
	}
	for i, r := range recvs {
		if r.Len() != 8 || !bytes.Equal(bufs[i], payload(8, byte(i))) {
			t.Fatalf("receive %d got %d bytes %v", i, r.Len(), bufs[i])
		}
	}
	st := e.Stats()
	if st.Unexpected != 0 || st.FramesDropped != 0 {
		t.Fatalf("%d unexpected and %d dropped frames: some frame was delivered twice", st.Unexpected, st.FramesDropped)
	}
	if e.woken.Load() != nil {
		t.Fatal("the slot still holds a packet after every receive completed")
	}
}
