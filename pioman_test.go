package pioman_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pioman"
)

func TestClusterLifecycle(t *testing.T) {
	c := pioman.NewCluster(3)
	defer c.Close()
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	if !c.Multithreaded() {
		t.Fatal("default cluster should be multithreaded")
	}
	for r := 0; r < 3; r++ {
		if c.Node(r).Rank() != r {
			t.Fatalf("Node(%d).Rank() = %d", r, c.Node(r).Rank())
		}
	}
}

func TestSequentialBaselineOption(t *testing.T) {
	c := pioman.NewCluster(2, pioman.WithSequentialBaseline())
	defer c.Close()
	if c.Multithreaded() {
		t.Fatal("baseline cluster reports multithreaded")
	}
	c.Run(func(p *pioman.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("seq"))
		} else {
			buf := make([]byte, 8)
			n, _ := p.Recv(0, 1, buf)
			if string(buf[:n]) != "seq" {
				t.Errorf("got %q", buf[:n])
			}
		}
	})
}

func TestMachineOption(t *testing.T) {
	c := pioman.NewCluster(2, pioman.WithMachine(1, 2))
	defer c.Close()
	if got := c.Node(0).Sch.NumCores(); got != 2 {
		t.Fatalf("cores = %d, want 2", got)
	}
}

func TestRoundtripOverPublicAPI(t *testing.T) {
	c := pioman.NewCluster(2)
	defer c.Close()
	const size = 100 << 10 // rendezvous path
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 3)
	}
	c.Run(func(p *pioman.Proc) {
		if p.Rank() == 0 {
			req := p.Isend(1, 7, data)
			p.Compute(20 * time.Microsecond)
			p.WaitSend(req)
		} else {
			buf := make([]byte, size)
			n, from := p.Recv(0, 7, buf)
			if n != size || from != 0 || !bytes.Equal(buf, data) {
				t.Errorf("recv n=%d from=%d intact=%v", n, from, bytes.Equal(buf, data))
			}
		}
	})
}

func TestAnySourceConstant(t *testing.T) {
	c := pioman.NewCluster(2)
	defer c.Close()
	c.Run(func(p *pioman.Proc) {
		if p.Rank() == 1 {
			p.Send(0, 3, []byte{9})
		} else {
			var b [1]byte
			_, from := p.Recv(pioman.AnySource, 3, b[:])
			if from != 1 || b[0] != 9 {
				t.Errorf("from=%d b=%d", from, b[0])
			}
		}
	})
}

func TestCollectivesOverPublicAPI(t *testing.T) {
	c := pioman.NewCluster(4)
	defer c.Close()
	var mu sync.Mutex
	sums := map[int]float64{}
	c.Run(func(p *pioman.Proc) {
		p.Barrier()
		got := p.AllReduceSum(float64(p.Rank() + 1))
		mu.Lock()
		sums[p.Rank()] = got
		mu.Unlock()
	})
	for r, s := range sums {
		if s != 10 {
			t.Errorf("rank %d sum = %v, want 10", r, s)
		}
	}
}

func TestTraceOption(t *testing.T) {
	c := pioman.NewCluster(2, pioman.WithTrace(256))
	defer c.Close()
	c.Run(func(p *pioman.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("traced"))
		} else {
			buf := make([]byte, 8)
			p.Recv(0, 1, buf)
		}
	})
	if c.Node(0).Trace.Len() == 0 {
		t.Fatal("no events recorded on sender")
	}
}

func TestStrategyAndExtraRailOptions(t *testing.T) {
	c := pioman.NewCluster(2,
		pioman.WithStrategy("fifo"),
		pioman.WithExtraRail("tcp"),
	)
	defer c.Close()
	const size = 256 << 10
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	c.Run(func(p *pioman.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, data)
		} else {
			buf := make([]byte, size)
			n, _ := p.Recv(0, 1, buf)
			if n != size || !bytes.Equal(buf, data) {
				t.Error("striped transfer corrupted")
			}
		}
	})
}

func TestUnknownRailKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pioman.NewCluster(2, pioman.WithExtraRail("carrier-pigeon"))
}

func TestWithoutBlockingFallback(t *testing.T) {
	c := pioman.NewCluster(2, pioman.WithoutBlockingFallback(), pioman.WithTimerPeriod(time.Millisecond))
	defer c.Close()
	c.Run(func(p *pioman.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("x"))
		} else {
			var b [1]byte
			p.Recv(0, 1, b[:])
		}
	})
}

func TestManyClustersSequentially(t *testing.T) {
	// Worlds must not leak goroutines that break subsequent worlds.
	for i := 0; i < 5; i++ {
		c := pioman.NewCluster(2, pioman.WithMachine(1, 2))
		c.Run(func(p *pioman.Proc) {
			if p.Rank() == 0 {
				p.Send(1, 1, []byte{byte(i)})
			} else {
				var b [1]byte
				p.Recv(0, 1, b[:])
			}
		})
		c.Close()
	}
}
