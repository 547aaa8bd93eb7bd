package fabric

import (
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/sync2"
	"pioman/internal/wire"
)

// Inbox is the arrival queue the real transports share: a FIFO of
// decoded packets with one notify edge for blocking receivers. The head
// index (rather than re-slicing pkts[1:]) keeps the backing array's
// full capacity across push/pop cycles, so a steady stream of packets
// recycles one array instead of reallocating — part of the
// allocation-free receive path. Producers (pollers, socket readers, ring
// scans, self-sends) call Push/PushRun; the engine drains through
// PopRun and parks in Recv.
type Inbox struct {
	mu   sync.Mutex
	pkts []*wire.Packet
	head int
	// n mirrors the queued count, stored under mu by every push and pop,
	// so PopRun reads "empty" without the mutex: the empty poll a
	// waiting core repeats takes no lock. A push that races the read is
	// found by the next poll.
	n      atomic.Int64
	notify chan struct{}
}

// NewInbox returns an empty inbox.
func NewInbox() *Inbox {
	return &Inbox{notify: make(chan struct{}, 1)}
}

// Push appends one packet and wakes a blocked receiver.
func (ib *Inbox) Push(p *wire.Packet) {
	one := [1]*wire.Packet{p}
	ib.PushRun(one[:])
}

// PushRun appends a whole decoded run under one lock acquisition and
// raises a single notify edge for it — the producer half of the batched
// receive path: a poller that decoded k frames from one socket visit
// costs the inbox one lock round trip, not k.
func (ib *Inbox) PushRun(run []*wire.Packet) {
	if len(run) == 0 {
		return
	}
	ib.mu.Lock()
	ib.pkts, ib.head = sync2.PushRun(ib.pkts, ib.head, run)
	ib.n.Store(int64(len(ib.pkts) - ib.head))
	ib.mu.Unlock()
	sync2.Notify(ib.notify)
}

// PopRun pops up to len(into) queued packets in FIFO order under one
// lock acquisition and returns how many it wrote — the consumer half of
// the batched receive path. An empty inbox costs one atomic load and no
// lock. Entries of into past the count are untouched.
func (ib *Inbox) PopRun(into []*wire.Packet) int {
	if ib.n.Load() == 0 {
		return 0
	}
	ib.mu.Lock()
	var n int
	ib.pkts, ib.head, n = sync2.PopRun(ib.pkts, ib.head, into)
	ib.n.Store(int64(len(ib.pkts) - ib.head))
	ib.mu.Unlock()
	return n
}

// pop takes the oldest packet for a Recv waiter. A run of k frames
// raised one edge, so a waiter that leaves frames behind re-raises it:
// every other goroutine parked in Recv wakes in turn instead of
// sleeping out its timeout beside a non-empty queue.
func (ib *Inbox) pop() *wire.Packet {
	var one [1]*wire.Packet
	ib.mu.Lock()
	ib.pkts, ib.head, _ = sync2.PopRun(ib.pkts, ib.head, one[:])
	ib.n.Store(int64(len(ib.pkts) - ib.head))
	more := ib.head < len(ib.pkts)
	ib.mu.Unlock()
	if more {
		sync2.Notify(ib.notify)
	}
	return one[0]
}

// Recv waits up to timeout for a packet, sleeping rather than spinning;
// done is the owning endpoint's close signal. Nil means the timeout
// expired or done closed with nothing left queued. The deadline timer is
// drawn from a pool and armed once for the whole wait, so a blocking
// receive allocates nothing — a spurious notify edge just re-checks the
// queue while the timer keeps running toward the deadline.
func (ib *Inbox) Recv(timeout time.Duration, done <-chan struct{}) *wire.Packet {
	if p := ib.pop(); p != nil {
		return p
	}
	t := sync2.GetTimer(timeout)
	fired := false
	defer func() { sync2.PutTimer(t, fired) }()
	for {
		select {
		case <-ib.notify:
			if p := ib.pop(); p != nil {
				return p
			}
		case <-done:
			return ib.pop()
		case <-t.C:
			fired = true
			return ib.pop()
		}
	}
}
