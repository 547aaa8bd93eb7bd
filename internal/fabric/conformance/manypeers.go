package conformance

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/testenv"
	"pioman/internal/wire"
)

// manyPeersFrames is the per-direction frame count each hub↔spoke pair
// exchanges in RunManyPeers: enough traffic that every stream carries
// real interleaved load, small enough that N=64+ stays fast under -race.
const manyPeersFrames = 24

// RunManyPeers is the C10K shape gate: one hub endpoint exchanges
// traffic with N spoke endpoints inside one process, asserting
// exactly-once delivery in both directions, per-sender FIFO when
// strictFIFO is set (stream transports), and — the point of the suite —
// that servicing N peers costs a bounded number of goroutines, not
// O(peers) of them. budget caps the runtime.NumGoroutine growth while
// all endpoints are open and connected; after Close the count must
// settle back to the baseline, so a backend that leaks pollers (or any
// per-connection goroutine) on Close fails here too.
func RunManyPeers(t *testing.T, open OpenFabric, peers int, strictFIFO bool, budget int) {
	t.Run("ManyPeers", func(t *testing.T) {
		runtime.GC()
		base := runtime.NumGoroutine()
		f := open(t, peers+1)
		defer f.Close()
		hub := mustEp(t, f, 0)

		errs := make(chan error, peers+1)
		var wg sync.WaitGroup
		for r := 1; r <= peers; r++ {
			ep := mustEp(t, f, r)
			wg.Add(1)
			go func(rank int, ep fabric.Endpoint) {
				defer wg.Done()
				errs <- runSpoke(ep, rank, strictFIFO)
			}(r, ep)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- runHub(hub, peers, strictFIFO)
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		// Steady state: every endpoint open, every stream established,
		// test goroutines joined. This is where a goroutine-per-
		// connection design shows ~2×peers growth and an event-driven
		// one stays flat.
		grew := settleGoroutines(base+budget, 5*time.Second) - base
		if grew > budget {
			t.Errorf("goroutine growth %d with %d peers connected exceeds budget %d (per-connection goroutines?)", grew, peers, budget)
		}

		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Close must release every servicing goroutine: pollers, accept
		// loops, redialers. A few unrelated runtime goroutines may spin
		// up during the test, hence the small slack.
		const closeSlack = 4
		left := settleGoroutines(base+closeSlack, 10*time.Second) - base
		if left > closeSlack {
			t.Errorf("goroutine count %d above baseline %d after Close: endpoint leaks servicing goroutines", left+base, base)
		}
	})
}

// runSpoke sends its frames to the hub, then verifies the hub's frames
// back: exactly once, ascending Seq when strict.
func runSpoke(ep fabric.Endpoint, rank int, strict bool) error {
	for i := 1; i <= manyPeersFrames; i++ {
		p := &wire.Packet{
			Kind: wire.PktEager, Src: rank, Dst: 0, Tag: rank,
			Seq: uint64(i), Payload: patternedAt(64+i, byte(rank)),
		}
		if err := ep.Send(p); err != nil {
			return fmt.Errorf("spoke %d send %d: %w", rank, i, err)
		}
	}
	seen := make(map[uint64]bool, manyPeersFrames)
	next := uint64(1)
	for len(seen) < manyPeersFrames {
		p, err := recvErr(ep)
		if err != nil {
			return fmt.Errorf("spoke %d after %d frames: %w", rank, len(seen), err)
		}
		if p.Seq < 1 || p.Seq > manyPeersFrames || seen[p.Seq] {
			return fmt.Errorf("spoke %d received seq %d twice or out of range", rank, p.Seq)
		}
		if strict && p.Seq != next {
			return fmt.Errorf("spoke %d received seq %d, want %d (FIFO violated)", rank, p.Seq, next)
		}
		seen[p.Seq] = true
		next++
		fabric.ReleasePacket(p)
	}
	return nil
}

// runHub sends each spoke its frames round-robin — so all streams carry
// interleaved traffic at once — and verifies every spoke's frames back.
func runHub(hub fabric.Endpoint, peers int, strict bool) error {
	for i := 1; i <= manyPeersFrames; i++ {
		for r := 1; r <= peers; r++ {
			p := &wire.Packet{
				Kind: wire.PktEager, Src: 0, Dst: r, Tag: r,
				Seq: uint64(i), Payload: patternedAt(64+i, byte(r)),
			}
			if err := hub.Send(p); err != nil {
				return fmt.Errorf("hub send %d to spoke %d: %w", i, r, err)
			}
		}
	}
	seen := make([]map[uint64]bool, peers+1)
	next := make([]uint64, peers+1)
	for r := 1; r <= peers; r++ {
		seen[r] = make(map[uint64]bool, manyPeersFrames)
		next[r] = 1
	}
	total := 0
	for total < peers*manyPeersFrames {
		p, err := recvErr(hub)
		if err != nil {
			return fmt.Errorf("hub after %d of %d frames: %w", total, peers*manyPeersFrames, err)
		}
		src := p.Src
		if src < 1 || src > peers {
			return fmt.Errorf("hub received frame from unknown src %d", src)
		}
		if p.Seq < 1 || p.Seq > manyPeersFrames || seen[src][p.Seq] {
			return fmt.Errorf("hub received seq %d from spoke %d twice or out of range", p.Seq, src)
		}
		if strict && p.Seq != next[src] {
			return fmt.Errorf("hub received seq %d from spoke %d, want %d (per-sender FIFO violated)", p.Seq, src, next[src])
		}
		seen[src][p.Seq] = true
		next[src]++
		total++
		fabric.ReleasePacket(p)
	}
	return nil
}

// recvErr waits for one packet, polling and blocking alternately so both
// reception paths see traffic. It returns an error instead of calling
// t.Fatal, which must not be called off the test goroutine.
func recvErr(ep fabric.Endpoint) (*wire.Packet, error) {
	deadline := time.Now().Add(recvDeadline)
	pollOne := testenv.PollOne(ep)
	for {
		if p := pollOne(); p != nil {
			return p, nil
		}
		if p := ep.BlockingRecv(5 * time.Millisecond); p != nil {
			return p, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no packet arrived within the suite deadline")
		}
	}
}

// settleGoroutines polls runtime.NumGoroutine until it drops to target
// or the timeout passes, returning the last observation — transient
// goroutines (redialers, handshakes, runtime bookkeeping) get a grace
// window to exit before the caller judges the count.
func settleGoroutines(target int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= target || time.Now().After(deadline) {
			return n
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
