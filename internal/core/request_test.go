package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"pioman/internal/sched"
	"pioman/internal/testenv"
)

// TestReleaseRightAfterCompleted recycles a request the moment its
// completion is observed — by a waiter parked on the flag, or by a poll
// of Completed — while the completing goroutine may still be inside Set.
// Under the race detector it fails if Set touches the request after the
// swap that publishes the completion, which is what lets Release recycle
// without waiting for the completer to leave. The requests come off one
// engine's freelist, so every round after the first reuses a struct the
// previous round released.
func TestReleaseRightAfterCompleted(t *testing.T) {
	e := newCluster(t, 1).Nodes[0].Eng
	for i := 0; i < 1000; i++ {
		e.qlock.Lock()
		r := e.takeRecvLocked()
		e.qlock.Unlock()
		go r.req.Complete()
		if i%2 == 0 {
			r.req.Flag().Wait()
		} else {
			for !r.Completed() {
				runtime.Gosched()
			}
		}
		r.Release()
	}
}

// TestRequestsRecyclePerEngine pins the engine-owned freelists: once
// warm, an eager self round on one engine — Irecv, Isend, both waits,
// both Releases — gets back the very structs the previous round
// released, fully reset, and allocates nothing.
func TestRequestsRecyclePerEngine(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := newCluster(t, 1, withMode(Sequential))
	e := c.Nodes[0].Eng
	data, buf := payload(64, 3), make([]byte, 64)
	c.run(0, func(th *sched.Thread) {
		var lastS *SendReq
		var lastR *RecvReq
		round := func() {
			r := e.Irecv(0, 5, buf)
			s := e.Isend(0, 5, data)
			if lastS != nil && (s != lastS || r != lastR) {
				t.Errorf("round drew fresh requests: send %p after %p, recv %p after %p", s, lastS, r, lastR)
			}
			if s.Dst() != 0 || s.Tag() != 5 || s.Len() != 64 || s.Rendezvous() {
				t.Errorf("recycled send request reads dst=%d tag=%d len=%d rdv=%v", s.Dst(), s.Tag(), s.Len(), s.Rendezvous())
			}
			e.WaitSend(s, th)
			e.WaitRecv(r, th)
			if r.Len() != 64 || r.From() != 0 || r.MatchedTag() != 5 || !bytes.Equal(buf, data) {
				t.Errorf("recycled receive request reads len=%d from=%d tag=%d", r.Len(), r.From(), r.MatchedTag())
			}
			s.Release()
			r.Release()
			lastS, lastR = s, r
		}
		for i := 0; i < 10; i++ {
			round()
		}
		if n := testing.AllocsPerRun(200, round); n != 0 {
			t.Errorf("a warm eager self round allocates %.2f times", n)
		}
	})
}

// TestReleaseOffPosterGoroutine releases requests on goroutines other
// than their posters' while the posters keep posting, so Release's pushes
// race the posts' refills on both engines' freelists. Every message must
// arrive intact and in order, and under -race the freelists must show no
// unsynchronized access.
func TestReleaseOffPosterGoroutine(t *testing.T) {
	const (
		windows = 200
		window  = 8
		size    = 64
	)
	c := newCluster(t, 2)
	sends := make(chan *SendReq, window)
	recvs := make(chan *RecvReq, window)
	var released sync.WaitGroup
	released.Add(2)
	go func() {
		defer released.Done()
		for s := range sends {
			s.Release()
		}
	}()
	go func() {
		defer released.Done()
		for r := range recvs {
			r.Release()
		}
	}()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(sends)
		e := c.Nodes[0].Eng
		c.run(0, func(th *sched.Thread) {
			reqs := make([]*SendReq, window)
			for w := 0; w < windows; w++ {
				for k := range reqs {
					// A fresh buffer per message: the simulated rail's
					// frame aliases it until the receiver copies it out.
					data := make([]byte, size)
					binary.LittleEndian.PutUint64(data, uint64(w*window+k))
					reqs[k] = e.Isend(1, 9, data)
				}
				for _, s := range reqs {
					e.WaitSend(s, th)
					sends <- s
				}
			}
		})
	}()
	go func() {
		defer wg.Done()
		defer close(recvs)
		e := c.Nodes[1].Eng
		bufs := make([][]byte, window)
		for k := range bufs {
			bufs[k] = make([]byte, size)
		}
		c.run(1, func(th *sched.Thread) {
			reqs := make([]*RecvReq, window)
			for w := 0; w < windows; w++ {
				for k := range reqs {
					reqs[k] = e.Irecv(0, 9, bufs[k])
				}
				for k, r := range reqs {
					e.WaitRecv(r, th)
					if got, want := binary.LittleEndian.Uint64(bufs[k]), uint64(w*window+k); r.Len() != size || got != want {
						t.Errorf("receive %d: %d bytes carrying message %d", want, r.Len(), got)
					}
					recvs <- r
				}
			}
		})
	}()
	wg.Wait()
	released.Wait()
}
