// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4), one benchmark family per artifact:
//
//	BenchmarkFig5   — Figure 5, small-message submission offloading
//	BenchmarkFig6   — Figure 6, rendezvous handshake progression
//	BenchmarkTable1 — Table 1, the convolution meta-application
//	BenchmarkAblation* — the design-choice ablations from DESIGN.md
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each sub-benchmark reports µs per benchmark iteration (one Fig. 4
// exchange or one application iteration), directly comparable with the
// paper's µs numbers; cmd/nmbench prints the same data as tables.
package pioman_test

import (
	"fmt"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/exp"
	"pioman/internal/mpi"
)

// fig4Configs are the engine configurations compared in Figs. 5 and 6.
func fig4Configs() []struct {
	name string
	cfg  mpi.Config
	comp time.Duration
} {
	return []struct {
		name string
		cfg  mpi.Config
		comp time.Duration
	}{
		{"reference", mpi.DefaultSequential(2), 0},
		{"no-offload", mpi.DefaultSequential(2), -1}, // comp filled per figure
		{"offload", mpi.DefaultMultithreaded(2), -1},
	}
}

// benchExchange measures b.N Fig. 4 iterations on a fresh world.
func benchExchange(b *testing.B, cfg mpi.Config, size int, comp time.Duration) {
	b.Helper()
	w := mpi.NewWorld(cfg)
	defer w.Close()
	exp.RunExchangeN(w, size, comp, 20) // warm the engine and the links
	b.ResetTimer()
	exp.RunExchangeN(w, size, comp, b.N)
}

// BenchmarkFig5 regenerates Figure 5 (§4.1): eager messages with 20 µs of
// computation per iteration.
func BenchmarkFig5(b *testing.B) {
	const comp = 20 * time.Microsecond
	for _, se := range fig4Configs() {
		c := se.comp
		if c < 0 {
			c = comp
		}
		for _, size := range exp.Fig5Sizes() {
			b.Run(fmt.Sprintf("%s/size=%d", se.name, size), func(b *testing.B) {
				benchExchange(b, se.cfg, size, c)
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (§4.2): the rendezvous sweep with
// 100 µs of computation per iteration.
func BenchmarkFig6(b *testing.B) {
	const comp = 100 * time.Microsecond
	for _, se := range fig4Configs() {
		c := se.comp
		if c < 0 {
			c = comp
		}
		for _, size := range exp.Fig6Sizes() {
			b.Run(fmt.Sprintf("%s/size=%d", se.name, size), func(b *testing.B) {
				benchExchange(b, se.cfg, size, c)
			})
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (§4.3): the convolution
// meta-application at 4 and 16 threads, with and without offloading. Each
// benchmark iteration is one full run of the measured loop; the reported
// per-iteration metric is the mean application iteration time.
func BenchmarkTable1(b *testing.B) {
	for _, threads := range []int{4, 16} {
		for _, mode := range []struct {
			name string
			cfg  mpi.Config
		}{
			{"no-offload", mpi.DefaultSequential(2)},
			{"offload", mpi.DefaultMultithreaded(2)},
		} {
			b.Run(fmt.Sprintf("threads=%d/%s", threads, mode.name), func(b *testing.B) {
				cfg := exp.DefaultTable1(threads)
				cfg.Warmup = 5
				cfg.Iters = 20
				var mean time.Duration
				for i := 0; i < b.N; i++ {
					mean = exp.RunConvolution(mode.cfg, cfg)
				}
				b.ReportMetric(float64(mean.Microseconds()), "µs/app-iter")
			})
		}
	}
}

// BenchmarkAblationOffload isolates the Isend return-time claim of §2.2.
func BenchmarkAblationOffload(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  mpi.Config
	}{
		{"sequential", mpi.DefaultSequential(2)},
		{"mt-inline", func() mpi.Config {
			c := mpi.DefaultMultithreaded(2)
			c.OffloadEager = false
			return c
		}()},
		{"mt-offload", mpi.DefaultMultithreaded(2)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			benchExchange(b, mode.cfg, 16<<10, 20*time.Microsecond)
		})
	}
}

// BenchmarkAblationStrategy compares the optimizer strategies on a burst
// of small same-destination messages.
func BenchmarkAblationStrategy(b *testing.B) {
	for _, strat := range []string{"fifo", "aggreg"} {
		b.Run(strat, func(b *testing.B) {
			cfg := mpi.DefaultMultithreaded(2)
			cfg.Strategy = strat
			w := mpi.NewWorld(cfg)
			defer w.Close()
			const burst = 16
			const sz = 512
			run := func(n int) {
				w.RunAll(func(p *mpi.Proc) {
					p.Barrier()
					if p.Rank() == 0 {
						data := make([]byte, sz)
						for it := 0; it < n; it++ {
							reqs := make([]*core.SendReq, burst)
							for m := range reqs {
								reqs[m] = p.Isend(1, 9, data)
							}
							for _, s := range reqs {
								p.WaitSend(s)
							}
							var ack [1]byte
							p.Recv(1, 10, ack[:])
						}
						return
					}
					buf := make([]byte, sz)
					for it := 0; it < n; it++ {
						for m := 0; m < burst; m++ {
							p.Recv(0, 9, buf)
						}
						p.Send(0, 10, []byte{1})
					}
				})
			}
			run(5)
			b.ResetTimer()
			run(b.N)
		})
	}
}

// BenchmarkAblationBlocking measures a rendezvous exchange while every
// core computes, with and without the blocking-call fallback.
func BenchmarkAblationBlocking(b *testing.B) {
	for _, blocking := range []bool{false, true} {
		name := "fallback=off"
		if blocking {
			name = "fallback=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := mpi.DefaultMultithreaded(2)
			cfg.EnableBlocking = blocking
			w := mpi.NewWorld(cfg)
			defer w.Close()
			exp.RunExchangeN(w, 64<<10, 300*time.Microsecond, 10)
			b.ResetTimer()
			exp.RunExchangeN(w, 64<<10, 300*time.Microsecond, b.N)
		})
	}
}

// BenchmarkMsgRate64B measures back-to-back 64-byte message throughput
// through the full engine — msgs/sec, not RTT: rank 0 posts a window of
// non-blocking sends and waits on them while rank 1 receives the window
// into pre-posted receives, so per-event engine overhead (submission,
// matching, and the batched receive drain) is what bounds the rate, not
// the round-trip latency the pingpong benchmarks report. Like nmperf's
// stream workloads the loop is closed: rank 1 returns a one-byte credit
// per window, since an eager send completes at submission and an
// unthrottled sender would only measure how fast the receiver's
// unexpected pool grows. Two custom metrics are reported: the achieved
// message rate, and msgs/frame — rank 0's eager messages (engine
// EagerSubmits, one per message) over the eager frames its rail put on
// the wire (driver EagerSent, one per frame, a train counting once),
// which reads above 1 exactly when the default strategy aggregates the
// window.
func BenchmarkMsgRate64B(b *testing.B) {
	w := mpi.NewWorld(mpi.DefaultMultithreaded(2))
	defer w.Close()
	eng := w.Node(0).Eng
	rail := eng.Rails()[0] // the inter-node rail
	frameCounts := func() (msgs, frames uint64) {
		return eng.Stats().EagerSubmits, rail.Stats().EagerSent
	}
	const window, tagData, tagCredit = 32, 1, 2
	run := func(n int) {
		w.RunAll(func(p *mpi.Proc) {
			var credit [1]byte
			if p.Rank() == 0 {
				data := make([]byte, 64)
				reqs := make([]*core.SendReq, window)
				p.Barrier()
				for done := 0; done < n; done += window {
					k := min(window, n-done)
					for i := range reqs[:k] {
						reqs[i] = p.Isend(1, tagData, data)
					}
					for _, r := range reqs[:k] {
						p.WaitSend(r)
						r.Release()
					}
					p.Recv(1, tagCredit, credit[:])
				}
				p.Barrier()
				return
			}
			// Rank 1 posts each window before the barrier or credit that
			// releases it, so every message finds its receive posted.
			bufs := make([][64]byte, window)
			reqs := make([]*core.RecvReq, window)
			post := func(done int) int {
				k := min(window, n-done)
				for i := range reqs[:k] {
					reqs[i] = p.Irecv(0, tagData, bufs[i][:])
				}
				return k
			}
			k := post(0)
			p.Barrier()
			for done := 0; done < n; {
				for _, r := range reqs[:k] {
					p.WaitRecv(r)
					r.Release()
				}
				if done += k; done < n {
					k = post(done)
				}
				p.Send(0, tagCredit, credit[:])
			}
			p.Barrier()
		})
	}
	run(200)
	b.ResetTimer()
	msgs0, frames0 := frameCounts()
	start := time.Now()
	run(b.N)
	if el := time.Since(start); el > 0 {
		b.ReportMetric(float64(b.N)/el.Seconds(), "msgs/s")
	}
	if msgs, frames := frameCounts(); frames > frames0 {
		b.ReportMetric(float64(msgs-msgs0)/float64(frames-frames0), "msgs/frame")
	}
}

// BenchmarkPingpong is the classic latency benchmark over the simulated
// MX rail, multithreaded engine.
func BenchmarkPingpong(b *testing.B) {
	for _, size := range []int{8, 1024, 32 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			w := mpi.NewWorld(mpi.DefaultMultithreaded(2))
			defer w.Close()
			run := func(n int) {
				w.RunAll(func(p *mpi.Proc) {
					data := make([]byte, size)
					buf := make([]byte, size)
					p.Barrier()
					for it := 0; it < n; it++ {
						if p.Rank() == 0 {
							p.Send(1, 1, data)
							p.Recv(1, 1, buf)
						} else {
							p.Recv(0, 1, buf)
							p.Send(0, 1, data)
						}
					}
				})
			}
			run(20)
			b.ResetTimer()
			run(b.N)
		})
	}
}
