package mpi_test

import (
	"runtime"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/simfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/topo"
	"pioman/internal/wire"
)

// TestRealRailWorldTakesHostShape pins one side of the line between the
// two kinds of world: one whose rails are all real ignores
// Config.Machine — each node gets GOMAXPROCS cores, so a computing thread
// leaves a worker free (what AdaptiveOffload reads) — and its idle cores
// park instead of polling, so a whole ping-pong runs without one
// idle-hook pass.
func TestRealRailWorldTakesHostShape(t *testing.T) {
	f, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	rail := nic.RealParams()
	w := mpi.NewWorld(mpi.Config{
		Nodes:          2,
		Machine:        topo.Machine{Sockets: 2, CoresPerSocket: 4},
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		MX:             rail,
		Fabrics:        map[string]fabric.Fabric{rail.Name: f},
	})
	defer w.Close()
	want := runtime.GOMAXPROCS(0)
	for r := 0; r < 2; r++ {
		if got := w.Node(r).Sch.NumCores(); got != want {
			t.Errorf("node %d has %d cores, want GOMAXPROCS = %d", r, got, want)
		}
	}
	w.RunAll(func(p *mpi.Proc) {
		if idle := p.Node.Sch.IdleCores(); want >= 2 && idle < 1 {
			t.Errorf("node %d: %d idle cores while its thread holds one of %d", p.Rank(), idle, want)
		}
		msg := make([]byte, 64)
		buf := make([]byte, 64)
		for i := 0; i < 100; i++ {
			if p.Rank() == 0 {
				p.Send(1, 3, msg)
				p.Recv(1, 3, buf)
			} else {
				p.Recv(0, 3, buf)
				p.Send(0, 3, msg)
			}
		}
	})
	for r := 0; r < 2; r++ {
		if polls := w.Node(r).Sch.Stats().IdlePolls; polls != 0 {
			t.Errorf("node %d ran %d idle-hook polls, want 0: real-rail cores park", r, polls)
		}
	}
}

// TestSimulatedWorldKeepsModel is the other side: a world with a rail
// built from a link model keeps the paper's dual quad-core Xeon and its
// busy-polling idle hook, also when its other rail is a supplied fabric.
func TestSimulatedWorldKeepsModel(t *testing.T) {
	mixed := mpi.DefaultMultithreaded(2)
	mixed.Fabrics = map[string]fabric.Fabric{mixed.MX.Name: simfab.New(wire.NewFabric(2, mixed.MX.Link))}
	for name, cfg := range map[string]mpi.Config{"default": mpi.DefaultMultithreaded(2), "one rail supplied": mixed} {
		t.Run(name, func(t *testing.T) {
			w := mpi.NewWorld(cfg)
			defer w.Close()
			sch := w.Node(0).Sch
			if got := sch.Machine(); got != topo.DualQuadXeon() {
				t.Errorf("machine %v, want the dual quad-core Xeon", got)
			}
			for sch.Stats().IdlePolls == 0 {
				time.Sleep(time.Millisecond) // a missing idle hook hangs here
			}
		})
	}
}
