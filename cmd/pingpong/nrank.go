package main

// The -nrank mode: one rank of an N-process cluster launched through
// cmd/nmrun (or by hand against a standalone registry). Ranks pair up
// with their XOR-1 neighbor (0↔1, 2↔3, …) and pingpong eager-class
// messages for a fixed duration, then fold per-rank message rates into
// a cluster total with AllReduceSumI64 over the survivor set. A rank
// whose partner dies mid-run reports core.ErrPeerDead and finishes
// cleanly — this mode is the CI vehicle for the bounded-failure
// semantics (docs/CLUSTER.md): nmrun kills one rank, survivors must
// still exit 0.

import (
	"errors"
	"fmt"
	"os"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
	"pioman/internal/telemetry"
)

// nrankSize is the pairwise exchange payload: the eager-class 4 KiB
// cell, so rates measure protocol overhead rather than wire bandwidth.
const nrankSize = 4 << 10

// Payload sentinels of the pairwise stop protocol: the initiator (even
// rank) owns the clock, so the responder learns the run is over from
// the last message's first byte instead of guessing from its own timer.
const (
	nrankMore = 1
	nrankLast = 2
)

// runNrank executes this process's rank of the N-rank pingpong and
// returns the exit code. Cluster identity comes from the nmrun
// environment contract (mpi.JoinCluster).
func runNrank(dur time.Duration, quick bool, metrics *telemetry.Registry) int {
	if quick {
		dur = dur / 2
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
	fmt.Printf("pingpong: rank %d of %d up (partner %d)\n", rank, size, partner)

	code := 0
	cw.Self().Run(func(p *mpi.Proc) {
		p.Barrier()
		var (
			msgs    int64
			elapsed time.Duration
			deadErr error
		)
		if partner >= 0 {
			msgs, elapsed, deadErr = nrankExchange(p, rank, partner, dur)
		}
		rate := float64(0)
		if elapsed > 0 {
			rate = float64(msgs) / elapsed.Seconds()
		}
		switch {
		case deadErr != nil && !nrankPeerDead(deadErr):
			fmt.Fprintf(os.Stderr, "pingpong: rank %d: exchange with %d failed: %v\n", rank, partner, deadErr)
			code = 1
		case deadErr != nil:
			fmt.Printf("pingpong: rank %d: partner %d died mid-run (%v) after %d msgs; continuing with survivors\n",
				rank, partner, deadErr, msgs)
		case partner >= 0:
			fmt.Printf("pingpong: rank %d <-> %d: %d msgs in %v (%.0f msgs/s)\n",
				rank, partner, msgs, elapsed.Round(time.Millisecond), rate)
		}
		// Fold the survivor set's totals; a dead rank's contribution
		// error-completes at rank 0 and is left out of the sum.
		totalMsgs := p.AllReduceSumI64(msgs)
		totalRate := p.AllReduceSum(rate)
		if rank == 0 {
			fmt.Printf("pingpong: cluster total %d msgs, %.0f msgs/s across %d ranks\n",
				totalMsgs, totalRate, size)
		}
	})
	fmt.Printf("pingpong: rank %d ok\n", rank)
	return code
}

// nrankExchange runs the pairwise pingpong until the initiator's clock
// expires (or the partner dies), returning messages exchanged, the
// measured window, and the partner-death error if one ended the run.
// The even rank initiates and owns the duration; the odd rank echoes
// until the nrankLast sentinel.
func nrankExchange(p *mpi.Proc, rank, partner int, dur time.Duration) (int64, time.Duration, error) {
	buf := make([]byte, nrankSize)
	for i := range buf {
		buf[i] = byte(i*7 + 13)
	}
	var msgs int64
	start := time.Now()
	if rank&1 == 0 {
		for {
			buf[0] = nrankMore
			if time.Since(start) >= dur {
				buf[0] = nrankLast
			}
			if err := p.SendErr(partner, tagPing, buf); err != nil {
				return msgs, time.Since(start), err
			}
			msgs++
			last := buf[0] == nrankLast
			if _, _, err := p.RecvErr(partner, tagPong, buf); err != nil {
				return msgs, time.Since(start), err
			}
			msgs++
			if last {
				return msgs, time.Since(start), nil
			}
		}
	}
	for {
		if _, _, err := p.RecvErr(partner, tagPing, buf); err != nil {
			return msgs, time.Since(start), err
		}
		msgs++
		last := buf[0] == nrankLast
		if err := p.SendErr(partner, tagPong, buf); err != nil {
			return msgs, time.Since(start), err
		}
		msgs++
		if last {
			return msgs, time.Since(start), nil
		}
	}
}

// nrankPeerDead reports whether err is the bounded-failure completion.
func nrankPeerDead(err error) bool { return errors.Is(err, core.ErrPeerDead) }
