package main

// The rank mode: one rank of a world of OS processes launched through
// cmd/nmrun (or by hand against a standalone registry), over whichever
// transport the environment contract names (mpi.JoinCluster).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
	"pioman/internal/telemetry"
)

// Rank-mode protocol tags (tagPhase, the bonded phase marker, is in
// bonded.go).
const (
	tagPing = 2
	tagPong = 3
	tagBye  = 4 // even rank -> odd rank: the exchange is over
)

// realSizes spans both protocols around the 32 KiB rendezvous threshold.
var realSizes = []int{64, 1 << 10, 4 << 10, 32 << 10, 64 << 10, 256 << 10}

// maxRealSize is the echo buffer bound of the sweep.
var maxRealSize = realSizes[len(realSizes)-1]

// runRank executes this process's rank and returns the exit code.
// metrics, when non-nil, receives the world's engine/rail registrations
// (-metrics).
func runRank(dur time.Duration, quick bool, metrics *telemetry.Registry) int {
	iters := 50
	if quick {
		iters, dur = 5, dur/2
	}
	cw, err := mpi.JoinCluster(mpi.Config{
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		Metrics:        metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pingpong: %v\n", err)
		return 1
	}
	defer cw.Close()
	rank, size := cw.Rank, cw.Size()
	partner := rank ^ 1
	if partner >= size {
		partner = -1 // odd world: the last rank sits the exchange out
	}
	fmt.Printf("pingpong: rank %d of %d up over %s (partner %d)\n", rank, size, cw.Fabric, partner)

	code := 0
	cw.Self().Run(func(p *mpi.Proc) {
		p.Barrier()
		x := &pair{p: p, partner: partner}
		start := time.Now()
		var err error
		switch {
		case partner < 0:
		case rank&1 == 1:
			err = x.echo()
		default:
			err = x.sweep(iters, dur)
			if err == nil && cw.Fabric == "tcp+shm" {
				err = bondedPhases(x, quick)
			}
			// The partner echoes until the bye marker: send it on every
			// exit path, so a failed run does not strand it.
			if byeErr := p.SendErr(partner, tagBye, nil); err == nil {
				err = byeErr
			}
		}
		elapsed := time.Since(start)
		rate := float64(x.msgs) / elapsed.Seconds()
		switch {
		case err != nil && !errors.Is(err, core.ErrPeerDead):
			fmt.Fprintf(os.Stderr, "pingpong: rank %d: exchange with %d failed: %v\n", rank, partner, err)
			code = 1
		case err != nil:
			fmt.Printf("pingpong: rank %d: partner %d died mid-run (%v) after %d msgs; continuing with survivors\n",
				rank, partner, err, x.msgs)
		case partner >= 0:
			fmt.Printf("pingpong: rank %d <-> %d: %d msgs in %v (%.0f msgs/s)\n",
				rank, partner, x.msgs, elapsed.Round(time.Millisecond), rate)
		}
		// Fold the survivor set's totals; a dead rank's contribution
		// error-completes at rank 0 and is left out of the sum.
		totalMsgs := p.AllReduceSumI64(x.msgs)
		totalRate := p.AllReduceSum(rate)
		if rank == 0 {
			fmt.Printf("pingpong: cluster total %d msgs, %.0f msgs/s across %d ranks\n",
				totalMsgs, totalRate, size)
		}
	})
	if code == 0 {
		fmt.Printf("pingpong: rank %d ok\n", rank)
	}
	return code
}

// pair is one rank's side of its pairwise exchange.
type pair struct {
	p       *mpi.Proc
	partner int
	msgs    int64 // messages this rank sent and received
}

// exchange sends msg to the partner and checks that the echo into buf
// comes back byte for byte.
func (x *pair) exchange(msg, buf []byte) error {
	if err := x.p.SendErr(x.partner, tagPing, msg); err != nil {
		return err
	}
	x.msgs++
	n, _, err := x.p.RecvErr(x.partner, tagPong, buf[:len(msg)])
	if err != nil {
		return err
	}
	x.msgs++
	if n != len(msg) || !bytes.Equal(buf[:n], msg) {
		return fmt.Errorf("echo of %d bytes corrupted", len(msg))
	}
	return nil
}

// sweep drives the even rank: a warm-up plus iters timed round trips at
// every size, repeated until dur has passed (at least once). The first
// pass prints the table.
func (x *pair) sweep(iters int, dur time.Duration) error {
	msg, buf := patterned(maxRealSize), make([]byte, maxRealSize)
	eagerMax := x.p.Node.Eng.Rails()[0].EagerMax()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		for _, size := range realSizes {
			var t0 time.Time
			for i := -1; i < iters; i++ {
				if i == 0 {
					t0 = time.Now()
				}
				if err := x.exchange(msg[:size], buf); err != nil {
					return err
				}
			}
			if pass > 0 {
				continue
			}
			proto := "eager"
			if size > eagerMax {
				proto = "rendezvous"
			}
			rtt := time.Since(t0) / time.Duration(iters)
			fmt.Printf("pingpong: %-10s %8d B  rtt %10v  %8.1f MB/s\n",
				proto, size, rtt, 2*float64(size)/rtt.Seconds()/1e6)
		}
	}
	return nil
}

// echo drives the odd rank: it bounces the partner's pings back, and
// applies its bonded phase markers, until the bye marker arrives. The
// request recycles through the engine freelist each turn (results are
// read out before Release), so the echo loop allocates nothing.
func (x *pair) echo() error {
	buf := make([]byte, maxRealSize)
	for {
		r := x.p.Irecv(x.partner, core.AnyTag, buf)
		x.p.WaitRecv(r)
		tag, n, err := r.MatchedTag(), r.Len(), r.Err()
		r.Release()
		switch {
		case err != nil:
			return err
		case tag == tagBye:
			return nil
		case tag == tagPhase:
			applyPhase(x.p.Node.Eng, parsePhaseMarker(string(buf[:n])))
			continue
		}
		x.msgs++
		if err := x.p.SendErr(x.partner, tagPong, buf[:n]); err != nil {
			return err
		}
		x.msgs++
	}
}

// patterned fills a buffer with position-derived bytes so corruption and
// cross-size mixups are detectable; a prefix of patterned(n) is the
// pattern of its own length.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 13)
	}
	return b
}
