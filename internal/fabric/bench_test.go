package fabric_test

import (
	"fmt"
	"testing"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/simfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/wire"
)

// Raw-endpoint round-trip latency — simulated wire, real localhost TCP,
// real shared-memory rings, real loopback UDP — at the paper's three
// regimes: latency-bound (64 B), eager (4 KiB) and rendezvous-class
// (64 KiB) messages, plus, on the stream and ring transports, the 256 KiB
// size the benchmark's rendezvous workloads move. This is where the real
// transports' progress is measurable PR over PR — and where the shm
// rail's win over loopback TCP for co-located ranks shows up. Both sides
// recycle what they send and receive, so -benchmem reports the
// transport's own allocations.

var benchSizes = []int{64, 4 << 10, 64 << 10}

// benchSizesBulk adds the rendezvous payload size to the transports
// whose single frame carries it.
var benchSizesBulk = append(benchSizes[:len(benchSizes):len(benchSizes)], 256<<10)

// benchSizesUDP caps at 32 KiB: udpfab's one-datagram frame ceiling
// (~64 KiB minus headers) refuses the 64 KiB cell.
var benchSizesUDP = []int{64, 4 << 10, 32 << 10}

// sendCaptures reports whether ep's Send copies the packet before
// returning (fabric.SendCapturer), so the sender may recycle it at once.
func sendCaptures(ep fabric.Endpoint) bool {
	c, ok := ep.(fabric.SendCapturer)
	return ok && c.SendCaptures()
}

// echoPeer bounces every packet on ep back to its source. The inbound
// packet itself goes back out: a capturing transport copied it by the
// time Send returns, so it is released; otherwise the packet rides the
// wire and the pinging side releases it.
func echoPeer(ep fabric.Endpoint, quit <-chan struct{}) {
	captures := sendCaptures(ep)
	for {
		select {
		case <-quit:
			return
		default:
		}
		p := ep.BlockingRecv(50 * time.Millisecond)
		if p == nil {
			continue
		}
		p.Src, p.Dst = ep.Self(), p.Src
		ep.Send(p)
		if captures {
			fabric.ReleasePacket(p)
		}
	}
}

// benchRTT measures ping-pong round trips between endpoints 0 and 1.
func benchRTT(b *testing.B, f fabric.Fabric, size int) {
	ep0, err := f.Endpoint(0)
	if err != nil {
		b.Fatal(err)
	}
	ep1, err := f.Endpoint(1)
	if err != nil {
		b.Fatal(err)
	}
	quit := make(chan struct{})
	go echoPeer(ep1, quit)
	defer close(quit)
	captures := sendCaptures(ep0)
	payload := make([]byte, size)
	b.SetBytes(int64(2 * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := fabric.GetPacket()
		out.Kind, out.Src, out.Dst, out.Seq, out.Payload = wire.PktEager, 0, 1, uint64(i), payload
		if err := ep0.Send(out); err != nil {
			b.Fatal(err)
		}
		if captures {
			fabric.ReleasePacket(out)
		}
		// Block rather than spin-poll: on a single-CPU host a busy
		// loop starves the echo goroutine until the 10ms preemption
		// tick and the bench measures the Go scheduler instead.
		var in *wire.Packet
		for in == nil {
			in = ep0.BlockingRecv(time.Second)
		}
		fabric.ReleasePacket(in)
	}
	// The deferred fabric Close runs before the harness stops the clock;
	// keep its bounded drain out of the measurement.
	b.StopTimer()
}

func BenchmarkRTTSimfab(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			f := simfab.New(wire.NewFabric(2, wire.MYRI10G()))
			defer f.Close()
			benchRTT(b, f, size)
		})
	}
}

func BenchmarkRTTTcpfab(b *testing.B) {
	for _, size := range benchSizesBulk {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			f, err := tcpfab.NewLocal(2)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			benchRTT(b, f, size)
		})
	}
}

func BenchmarkRTTShmfab(b *testing.B) {
	for _, size := range benchSizesBulk {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			f, err := shmfab.NewLocal(2, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			benchRTT(b, f, size)
		})
	}
}

func BenchmarkRTTUdpfab(b *testing.B) {
	for _, size := range benchSizesUDP {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			f, err := udpfab.NewLocal(2)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			benchRTT(b, f, size)
		})
	}
}
