package exp

import (
	"fmt"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/ptime"
	"pioman/internal/stats"
)

// PingpongRow reports one size of the classic latency/bandwidth sweep.
type PingpongRow struct {
	Size          int
	HalfRTT       time.Duration
	BandwidthMBps float64
}

// RunPingpongRails measures half round-trip latency and effective
// bandwidth for each size under the given engine mode. withSHM keeps the
// testbed's intra-node shared-memory rail alongside MX; false sweeps over
// MX alone (cmd/pingpong's -rails flag).
func RunPingpongRails(mode core.Mode, sizes []int, withSHM bool) []PingpongRow {
	warm, meas := iters(20, 200)
	var cfg mpi.Config
	if mode == core.Multithreaded {
		cfg = mpi.DefaultMultithreaded(2)
	} else {
		cfg = mpi.DefaultSequential(2)
	}
	if !withSHM {
		cfg.SHM = nic.Params{}
	}
	cfg.Metrics = Metrics
	w := mpi.NewWorld(cfg)
	defer w.Close()
	rows := make([]PingpongRow, 0, len(sizes))
	for _, size := range sizes {
		var half time.Duration
		w.RunAll(func(p *mpi.Proc) {
			data := make([]byte, size)
			buf := make([]byte, size)
			p.Barrier()
			sample := stats.NewSample(meas)
			for it := 0; it < warm+meas; it++ {
				sw := ptime.NewStopwatch()
				if p.Rank() == 0 {
					p.Send(1, 1, data)
					p.Recv(1, 1, buf)
				} else {
					p.Recv(0, 1, buf)
					p.Send(0, 1, data)
				}
				if it >= warm && p.Rank() == 0 {
					sample.Add(sw.Elapsed() / 2)
				}
			}
			if p.Rank() == 0 {
				half = sample.TrimmedMean(0.1)
			}
		})
		row := PingpongRow{Size: size, HalfRTT: half}
		if half > 0 {
			row.BandwidthMBps = float64(size) / half.Seconds() / 1e6
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatPingpong renders the sweep.
func FormatPingpong(rows []PingpongRow, title string) string {
	out := fmt.Sprintf("%s\n%10s %14s %16s\n", title, "size", "latency(µs)", "bandwidth(MB/s)")
	for _, r := range rows {
		out += fmt.Sprintf("%10d %14.2f %16.1f\n", r.Size, stats.US(r.HalfRTT), r.BandwidthMBps)
	}
	return out
}
