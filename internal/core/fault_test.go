package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pioman/internal/nic"
	"pioman/internal/sched"
	"pioman/internal/wire"
)

// TestWireOvertakeIsReordered forces the wire-level reordering the
// fragmenting link model allows — a small RTS overtaking a bulk eager
// message — and checks that the receiver's stream-order stash restores
// matching order: the eager message posted first must complete first.
func TestWireOvertakeIsReordered(t *testing.T) {
	slow := fastRail()
	// 10 B/µs: a 16K eager occupies the link for ~1.6ms; the RTS sent
	// right after it interleaves and arrives ~1.6ms earlier.
	slow.Link = wire.LinkParams{Latency: 0, BytesPerUS: 10, FragBytes: 1024}
	c := newCluster(t, 2, withRails(func(int) []nic.Params { return []nic.Params{slow} }))

	const eagerSize = 16 << 10
	const rdvSize = 40 << 10
	eagerData := payload(eagerSize, 1)
	rdvData := payload(rdvSize, 2)
	bufEager := make([]byte, eagerSize)
	bufRdv := make([]byte, rdvSize)

	var completedFirst int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.run(0, func(th *sched.Thread) {
			s1 := c.Nodes[0].Eng.Isend(1, 1, eagerData) // bulk, slow
			s2 := c.Nodes[0].Eng.Isend(1, 2, rdvData)   // rendezvous: RTS overtakes
			c.Nodes[0].Eng.WaitSend(s1, th)
			c.Nodes[0].Eng.WaitSend(s2, th)
		})
	}()
	go func() {
		defer wg.Done()
		c.run(1, func(th *sched.Thread) {
			r1 := c.Nodes[1].Eng.Irecv(0, 1, bufEager)
			r2 := c.Nodes[1].Eng.Irecv(0, 2, bufRdv)
			idx := c.Nodes[1].Eng.WaitAny(th, r1.Req(), r2.Req())
			mu.Lock()
			completedFirst = idx
			mu.Unlock()
			c.Nodes[1].Eng.WaitRecv(r1, th)
			c.Nodes[1].Eng.WaitRecv(r2, th)
		})
	}()
	wg.Wait()
	if completedFirst != 0 {
		t.Errorf("rendezvous (posted second) completed before the earlier eager message")
	}
	if !bytes.Equal(bufEager, eagerData) || !bytes.Equal(bufRdv, rdvData) {
		t.Error("payload corrupted under reordering")
	}
}

// TestUnexpectedFlood buries the receiver under unexpected messages before
// any receive is posted, then drains them and checks exactly-once in-order
// delivery.
func TestUnexpectedFlood(t *testing.T) {
	c := newCluster(t, 2)
	const n = 200
	c.run(0, func(th *sched.Thread) {
		for i := 0; i < n; i++ {
			s := c.Nodes[0].Eng.Isend(1, 1000+i%10, []byte{byte(i), byte(i >> 8)})
			c.Nodes[0].Eng.WaitSend(s, th)
		}
	})
	// Let the flood land in the unexpected pool.
	deadline := time.Now().Add(2 * time.Second)
	for c.Nodes[1].Eng.Stats().Unexpected < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.Nodes[1].Eng.Stats().Unexpected; got < n {
		t.Fatalf("only %d/%d messages buffered", got, n)
	}
	// Drain: per tag, messages must come back in send order.
	c.run(1, func(th *sched.Thread) {
		seen := map[int]int{} // tag -> last index received
		for i := 0; i < n; i++ {
			tag := 1000 + i%10
			buf := make([]byte, 2)
			r := c.Nodes[1].Eng.Irecv(0, tag, buf)
			if !r.Completed() {
				c.Nodes[1].Eng.WaitRecv(r, th)
			}
			idx := int(buf[0]) | int(buf[1])<<8
			if last, ok := seen[tag]; ok && idx <= last {
				t.Errorf("tag %d: got index %d after %d (FIFO violated)", tag, idx, last)
				return
			}
			seen[tag] = idx
		}
	})
}

// TestDelayedPollsSequential starves the receiver (no polling at all) for
// a while, then verifies everything is recovered by a late wait — the
// "delayed polls" failure mode of the baseline engine.
func TestDelayedPollsSequential(t *testing.T) {
	c := newCluster(t, 2, withMode(Sequential))
	const n = 20
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		c.run(0, func(th *sched.Thread) {
			for i := 0; i < n; i++ {
				s := c.Nodes[0].Eng.Isend(1, 4, payload(1024, byte(i)))
				c.Nodes[0].Eng.WaitSend(s, th)
			}
		})
	}()
	<-sendDone
	time.Sleep(5 * time.Millisecond) // receiver completely absent
	c.run(1, func(th *sched.Thread) {
		for i := 0; i < n; i++ {
			buf := make([]byte, 1024)
			r := c.Nodes[1].Eng.Irecv(0, 4, buf)
			c.Nodes[1].Eng.WaitRecv(r, th)
			if !bytes.Equal(buf, payload(1024, byte(i))) {
				t.Errorf("message %d corrupted after delayed polls", i)
				return
			}
		}
	})
}

// TestManyConcurrentRendezvous stresses handshake state under concurrent
// large transfers in both directions.
func TestManyConcurrentRendezvous(t *testing.T) {
	c := newCluster(t, 2, withCores(4))
	const per = 6
	const size = 48 << 10
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			c.run(node, func(th *sched.Thread) {
				peer := 1 - node
				var sends []*SendReq
				var recvs []*RecvReq
				bufs := make([][]byte, per)
				for i := 0; i < per; i++ {
					bufs[i] = make([]byte, size)
					recvs = append(recvs, c.Nodes[node].Eng.Irecv(peer, 3000+i, bufs[i]))
					sends = append(sends, c.Nodes[node].Eng.Isend(peer, 3000+i, payload(size, byte(node*16+i))))
				}
				for _, s := range sends {
					c.Nodes[node].Eng.WaitSend(s, th)
				}
				for i, r := range recvs {
					c.Nodes[node].Eng.WaitRecv(r, th)
					if !bytes.Equal(bufs[i], payload(size, byte((1-node)*16+i))) {
						t.Errorf("node %d transfer %d corrupted", node, i)
						return
					}
				}
			})
		}(node)
	}
	wg.Wait()
}

// TestBoundedRendezvousWindow pins the per-peer unacked replay window:
// with a cap of 4, three times that many concurrent Isends to one peer
// must all complete — the overflow parks with no RTS on the wire and
// each DATA-ack admits the next parked send — and the sender's
// RdvParked counter must show the cap actually engaged.
func TestBoundedRendezvousWindow(t *testing.T) {
	const window = 4
	const n = 3 * window
	const size = 40 << 10
	c := newCluster(t, 2, withMaxPendingRdv(window))
	var wg sync.WaitGroup
	wg.Add(2)
	// The receives are posted only once every send is: no CTS — hence no
	// ack — can free a window slot while the burst is still being posted,
	// so the overflow parks on any host, however the threads interleave.
	allPosted := make(chan struct{})
	go func() {
		defer wg.Done()
		c.run(0, func(th *sched.Thread) {
			var sends []*SendReq
			for i := 0; i < n; i++ {
				sends = append(sends, c.Nodes[0].Eng.Isend(1, 7000+i, payload(size, byte(i))))
			}
			close(allPosted)
			for _, s := range sends {
				c.Nodes[0].Eng.WaitSend(s, th)
			}
		})
	}()
	bufs := make([][]byte, n)
	go func() {
		defer wg.Done()
		<-allPosted
		c.run(1, func(th *sched.Thread) {
			var recvs []*RecvReq
			for i := 0; i < n; i++ {
				bufs[i] = make([]byte, size)
				recvs = append(recvs, c.Nodes[1].Eng.Irecv(0, 7000+i, bufs[i]))
			}
			for _, r := range recvs {
				c.Nodes[1].Eng.WaitRecv(r, th)
			}
		})
	}()
	wg.Wait()
	for i := range bufs {
		if !bytes.Equal(bufs[i], payload(size, byte(i))) {
			t.Errorf("transfer %d corrupted through the bounded window", i)
		}
	}
	if parked := c.Nodes[0].Eng.Stats().RdvParked; parked != n-window {
		t.Errorf("%d sends parked, want exactly the %d past the window", parked, n-window)
	}
}

// TestMixedSizesInterleavedTags covers the matrix of protocol paths in one
// session: PIO, eager, aggregable bursts and rendezvous, with interleaved
// tags and both directions active.
func TestMixedSizesInterleavedTags(t *testing.T) {
	for _, strat := range []string{"fifo", "aggreg"} {
		t.Run(strat, func(t *testing.T) {
			c := newCluster(t, 2, withStrategy(strat))
			sizes := []int{16, 300, 4096, 33 << 10, 64, 50 << 10, 1 << 10}
			var wg sync.WaitGroup
			for node := 0; node < 2; node++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					c.run(node, func(th *sched.Thread) {
						peer := 1 - node
						var sends []*SendReq
						var recvs []*RecvReq
						bufs := make([][]byte, len(sizes))
						for i, sz := range sizes {
							bufs[i] = make([]byte, sz)
							recvs = append(recvs, c.Nodes[node].Eng.Irecv(peer, i, bufs[i]))
						}
						for i, sz := range sizes {
							sends = append(sends, c.Nodes[node].Eng.Isend(peer, i, payload(sz, byte(i))))
						}
						for _, s := range sends {
							c.Nodes[node].Eng.WaitSend(s, th)
						}
						for i, r := range recvs {
							c.Nodes[node].Eng.WaitRecv(r, th)
							if !bytes.Equal(bufs[i], payload(sizes[i], byte(i))) {
								t.Errorf("node %d tag %d (size %d) corrupted", node, i, sizes[i])
								return
							}
						}
					})
				}(node)
			}
			wg.Wait()
		})
	}
}

// TestPropertyEagerNeverExceedsThreshold asserts that no eager submission
// ever exceeds the rail threshold regardless of message mix (the invariant
// behind protocol selection).
func TestPropertyEagerNeverExceedsThreshold(t *testing.T) {
	c := newCluster(t, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.run(1, func(th *sched.Thread) {
			for i := 0; i < 12; i++ {
				sz := 1 << (i + 4) // 16B .. 128K
				buf := make([]byte, sz)
				r := c.Nodes[1].Eng.Irecv(0, i, buf)
				c.Nodes[1].Eng.WaitRecv(r, th)
			}
		})
	}()
	c.run(0, func(th *sched.Thread) {
		for i := 0; i < 12; i++ {
			sz := 1 << (i + 4)
			s := c.Nodes[0].Eng.Isend(1, i, payload(sz, byte(i)))
			if want := sz > c.Nodes[0].Eng.defaultRail().EagerMax(); s.Rendezvous() != want {
				t.Errorf("size %d: rendezvous=%v, want %v", sz, s.Rendezvous(), want)
			}
			c.Nodes[0].Eng.WaitSend(s, th)
		}
	})
	wg.Wait()
}
