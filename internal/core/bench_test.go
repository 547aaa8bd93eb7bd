package core

import (
	"testing"

	"pioman/internal/fabric/bufpool"
	"pioman/internal/sched"
)

// BenchmarkIsendWaitEager measures a full eager send/receive round through
// the multithreaded engine on negligible-cost rails: pure engine overhead.
func BenchmarkIsendWaitEager(b *testing.B) {
	c := newCluster(b, 2)
	data := make([]byte, 4096)
	done := make(chan struct{})
	go c.run(1, func(th *sched.Thread) {
		buf := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			r := c.Nodes[1].Eng.Irecv(0, 1, buf)
			c.Nodes[1].Eng.WaitRecv(r, th)
			r.Release()
		}
		close(done)
	})
	c.run(0, func(th *sched.Thread) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := c.Nodes[0].Eng.Isend(1, 1, data)
			c.Nodes[0].Eng.WaitSend(s, th)
			s.Release()
		}
	})
	<-done
}

// BenchmarkRendezvousRound measures a rendezvous round (RTS/CTS/DATA) at
// 64K through the multithreaded engine.
func BenchmarkRendezvousRound(b *testing.B) {
	c := newCluster(b, 2)
	data := make([]byte, 64<<10)
	done := make(chan struct{})
	go c.run(1, func(th *sched.Thread) {
		buf := make([]byte, 64<<10)
		for i := 0; i < b.N; i++ {
			r := c.Nodes[1].Eng.Irecv(0, 1, buf)
			c.Nodes[1].Eng.WaitRecv(r, th)
			r.Release()
		}
		close(done)
	})
	c.run(0, func(th *sched.Thread) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := c.Nodes[0].Eng.Isend(1, 1, data)
			c.Nodes[0].Eng.WaitSend(s, th)
			s.Release()
		}
	})
	<-done
}

// BenchmarkProgressIdle measures one empty progress pass — the cost an
// idle core pays per polling iteration.
func BenchmarkProgressIdle(b *testing.B) {
	c := newCluster(b, 2)
	eng := c.Nodes[0].Eng
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Progress(0)
	}
}

// BenchmarkAggrEncodeDecode measures the aggregation train codec: a
// pooled encode, the receive path's validation and in-place walk, and
// the buffer's return.
func BenchmarkAggrEncodeDecode(b *testing.B) {
	var train []*SendReq
	for i := 0; i < 8; i++ {
		train = append(train, &SendReq{tag: i, seq: uint64(i + 1), data: make([]byte, 256)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := pooledTrain(train)
		if !validAggr(enc) {
			b.Fatal("decode failed")
		}
		for rest := enc; len(rest) > 0; {
			_, _, _, rest = splitAggr(rest)
		}
		bufpool.Put(enc)
	}
}
