package mpi_test

import (
	"runtime"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/topo"
)

// TestWaitYieldsToGoroutineFedRail pins the cooperative wait by counting
// polls, not by timing them. At one P, a waiter that spins through the
// event server without yielding holds the only processor tcpfab's poller
// could read the socket on, so every leg of a ping-pong burns its whole
// spin budget on empty passes — hundreds of polls per exchange — and is
// delivered by the blocking watcher afterwards. A waiter that yields
// after each unworked pass hands the poller the P and finds its frame
// within a handful of polls.
//
// One row per polling wait: Wait, WaitAny, WaitAllTimeout and Probe all
// run the engine's one polling step, so each must find its frame within
// the same budget. The three that never block on their request only
// poll and yield: tcpfab's pollers nap with a short read deadline after
// a spin, so a yielding waiter no longer waits out the runtime's 10 ms
// netpoll for its frame, under the race detector too.
func TestWaitYieldsToGoroutineFedRail(t *testing.T) {
	rows := []struct {
		name string
		recv func(t *testing.T, p *mpi.Proc, src, tag int, buf []byte)
	}{
		{"Wait", func(t *testing.T, p *mpi.Proc, src, tag int, buf []byte) { p.Recv(src, tag, buf) }},
		{"WaitAny", func(t *testing.T, p *mpi.Proc, src, tag int, buf []byte) {
			r := p.Irecv(src, tag, buf)
			p.WaitAny(r.Req())
			r.Release()
		}},
		{"WaitAllTimeout", func(t *testing.T, p *mpi.Proc, src, tag int, buf []byte) {
			r := p.Irecv(src, tag, buf)
			if !p.Node.Eng.WaitAllTimeout(p.Th, time.Hour, r.Req()) {
				t.Error("WaitAllTimeout gave up on a receive")
			}
			r.Release()
		}},
		{"Probe", func(t *testing.T, p *mpi.Proc, src, tag int, buf []byte) {
			p.Probe(src, tag)
			p.Recv(src, tag, buf)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			const pollsBudget = 100
			perOp := pollsPerPingPong(t, row.recv)
			t.Logf("%.1f event-server polls per 64 B ping-pong at GOMAXPROCS=1 (budget %d)", perOp, pollsBudget)
			if perOp > pollsBudget {
				t.Errorf("%.1f polls per ping-pong, budget %d: waiters spin on an inbox only a starved goroutine can fill", perOp, pollsBudget)
			}
		})
	}
}

// pollsPerPingPong runs 200 64 B ping-pongs over tcpfab at GOMAXPROCS=1,
// both ranks receiving through recv, and returns the event-server polls
// both nodes spent per exchange.
func pollsPerPingPong(t *testing.T, recv func(t *testing.T, p *mpi.Proc, src, tag int, buf []byte)) float64 {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	f, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	rail := nic.RealParams()
	w := mpi.NewWorld(mpi.Config{
		Nodes:          2,
		Machine:        topo.Machine{Sockets: 1, CoresPerSocket: 2},
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		NoIdlePolling:  true,
		MX:             rail,
		Fabrics:        map[string]fabric.Fabric{rail.Name: f},
	})
	defer w.Close()

	const (
		iters = 200
		size  = 64
		tagPP = 9
	)
	polls := func() uint64 {
		return w.Node(0).Srv.Stats().Polls + w.Node(1).Srv.Stats().Polls
	}
	var before, after uint64
	w.RunAll(func(p *mpi.Proc) {
		msg := make([]byte, size)
		buf := make([]byte, size)
		p.Barrier() // connections dialed, pollers running
		if p.Rank() == 0 {
			before = polls()
		}
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				p.Send(1, tagPP, msg)
				recv(t, p, 1, tagPP, buf)
			} else {
				recv(t, p, 0, tagPP, buf)
				p.Send(0, tagPP, msg)
			}
		}
		if p.Rank() == 0 {
			after = polls()
		}
		p.Barrier()
	})
	return float64(after-before) / iters
}
