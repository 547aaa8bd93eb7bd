package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/nic"
	"pioman/internal/stats"
	"pioman/internal/sync2"
	"pioman/internal/wire"
)

// The layer ladder measures the same 64 B echo (and a 256 KiB stream) at
// each layer boundary of the workload's backend, from outside, through
// the layers' public functions: fabric codec in memory, raw Endpoint,
// bare nic.Driver pair, full mpi stack. A layer's self time is its rung
// minus the rung below, so for the echo
//
//	fabric.raw_rtt_p50_ns + nic.self_ns + core.stack_overhead_ns = mpi.echo_rtt_p50_ns
//
// holds by construction.

// ladder runs every rung for about rung each and returns the per-layer
// metrics they yield.
func ladder(backend string, seed int64, rung time.Duration) (map[string]float64, error) {
	m := map[string]float64{
		"fabric.codec_roundtrip_ns_64B":  codecRoundTrip(small, rung),
		"fabric.codec_roundtrip_ns_256K": codecRoundTrip(large, rung),
		"sync2.flag_wake_ns_p50":         flagWake(rung),
	}

	f, rail, err := openFabric(backend)
	if err != nil {
		return nil, fmt.Errorf("ladder: open %s fabric: %w", backend, err)
	}
	defer f.Close()
	ep0, err := f.Endpoint(0)
	if err != nil {
		return nil, err
	}
	ep1, err := f.Endpoint(1)
	if err != nil {
		return nil, err
	}

	// Rung: raw Endpoint echo.
	rtt, call, err := echo(rung,
		func(seq uint64, payload []byte) error { return sendRaw(ep0, 0, 1, seq, payload) },
		ep0.BlockingRecv,
		func(quit <-chan struct{}) {
			serveEcho(quit, ep1.BlockingRecv, func(p *wire.Packet) error {
				return sendRaw(ep1, 1, 0, p.Seq, p.Payload)
			})
		})
	if err != nil {
		return nil, fmt.Errorf("ladder: raw %s echo: %w", backend, err)
	}
	m["fabric.raw_rtt_p50_ns"], m["fabric.raw_send_call_ns_p50"] = rtt, call

	// Rung: raw one-way streams, 64 B for message rate and 256 KiB (in
	// frames of at most the rail's MTU) for bandwidth.
	rate, err := rawStream(ep0, ep1, small, small, rung)
	if err != nil {
		return nil, fmt.Errorf("ladder: raw %s 64 B stream: %w", backend, err)
	}
	m["fabric.raw_msgs_per_s"] = rate
	frame := large
	if rail.MTU < frame {
		frame = rail.MTU
	}
	rate, err = rawStream(ep0, ep1, large, frame, rung)
	if err != nil {
		return nil, fmt.Errorf("ladder: raw %s 256 KiB stream: %w", backend, err)
	}
	m["fabric.raw_MBps_256K"] = rate * large / 1e6

	// Rung: bare nic.Driver pair, no engine.
	d0, d1 := nic.New(rail, ep0), nic.New(rail, ep1)
	rtt, call, err = echo(rung,
		func(seq uint64, payload []byte) error {
			d0.SendEager(nic.Header{Src: 0, Dst: 1, Tag: tagData, Seq: seq}, payload)
			return nil
		},
		d0.BlockingPoll,
		func(quit <-chan struct{}) {
			serveEcho(quit, d1.BlockingPoll, func(p *wire.Packet) error {
				d1.SendEager(nic.Header{Src: 1, Dst: 0, Tag: tagData, Seq: p.Seq}, p.Payload)
				return nil
			})
		})
	if err != nil {
		return nil, fmt.Errorf("ladder: nic %s echo: %w", backend, err)
	}
	if errs := d0.Stats().SendErrs + d1.Stats().SendErrs; errs > 0 {
		return nil, fmt.Errorf("ladder: nic %s echo: %d sends rejected", backend, errs)
	}
	m["nic.echo_rtt_p50_ns"], m["nic.send_eager_call_ns_p50"] = rtt, call
	m["nic.self_ns"] = m["nic.echo_rtt_p50_ns"] - m["fabric.raw_rtt_p50_ns"]

	// Rung: the full stack, which is the ping-pong workload on this backend.
	top, err := measure(&workload{
		name: "ladder_mpi_echo", backend: backend, slots: 1, size: small, sampleEvery: 1, gen: pingpong,
	}, seed, rung/4, rung, false)
	if err != nil {
		return nil, fmt.Errorf("ladder: mpi %s echo: %w", backend, err)
	}
	m["mpi.echo_rtt_p50_ns"] = float64(top.cut().durs.Median())
	m["core.stack_overhead_ns"] = m["mpi.echo_rtt_p50_ns"] - m["nic.echo_rtt_p50_ns"]
	return m, nil
}

// codecRoundTrip times encoding a packet of the given payload size into a
// reused frame buffer and decoding it back through the pooled decoder,
// as transports do per frame; mean ns over the rung.
func codecRoundTrip(size int, rung time.Duration) float64 {
	p := &wire.Packet{Kind: wire.PktEager, Src: 0, Dst: 1, Tag: tagData, Payload: make([]byte, size)}
	frame := make([]byte, 0, fabric.EncodedSize(p))
	n := 0
	t0 := time.Now()
	for time.Since(t0) < rung/4 {
		for i := 0; i < 64; i++ {
			p.Seq++
			frame = fabric.AppendPacket(frame[:0], p)
			q, err := fabric.DecodePacketPooled(frame)
			if err != nil {
				panic(fmt.Sprintf("ladder: codec cannot decode its own frame: %v", err))
			}
			fabric.ReleasePacket(q)
		}
		n += 64
	}
	return float64(time.Since(t0)) / float64(n)
}

// flagWake times sync2.Flag.Set to a blocked waiter's return, between two
// goroutines: the waiter-wake step at the end of every blocking Wait.
func flagWake(rung time.Duration) float64 {
	s := stats.NewSample(0)
	t0 := time.Now()
	for time.Since(t0) < rung/2 {
		var f sync2.Flag
		ready := make(chan struct{})
		woke := make(chan time.Time)
		go func() {
			close(ready)
			f.Wait()
			woke <- time.Now()
		}()
		<-ready
		time.Sleep(20 * time.Microsecond) // let the waiter block on the flag's channel
		set := time.Now()
		f.Set()
		s.Add((<-woke).Sub(set))
	}
	return float64(s.Median())
}

func sendRaw(ep fabric.Endpoint, src, dst int, seq uint64, payload []byte) error {
	out := fabric.GetPacket()
	out.Kind, out.Src, out.Dst, out.Tag, out.Seq, out.Payload = wire.PktEager, src, dst, tagData, seq, payload
	err := ep.Send(out)
	if c, ok := ep.(fabric.SendCapturer); ok && c.SendCaptures() {
		fabric.ReleasePacket(out)
	}
	return err
}

// echo drives one side of a 64 B echo for about rung and returns the p50
// round trip and the p50 of the send call alone, in ns. serve runs the
// other side on its own goroutine until quit closes.
func echo(rung time.Duration, send func(seq uint64, payload []byte) error,
	recv func(time.Duration) *wire.Packet, serve func(quit <-chan struct{})) (rtt, call float64, err error) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serve(quit)
	}()
	defer wg.Wait()
	defer close(quit)

	payload := make([]byte, small)
	rtts, calls := stats.NewSample(0), stats.NewSample(0)
	start := time.Now()
	for seq := uint64(1); time.Since(start) < rung+rung/4; seq++ {
		t0 := time.Now()
		if err := send(seq, payload); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		var p *wire.Packet
		for p == nil {
			if p = recv(time.Second); p == nil && time.Since(t1) > 10*time.Second {
				return 0, 0, fmt.Errorf("no echo of seq %d within 10s", seq)
			}
		}
		t2 := time.Now()
		got := p.Seq
		fabric.ReleasePacket(p)
		if got != seq {
			return 0, 0, fmt.Errorf("echo carries seq %d, sent %d", got, seq)
		}
		if t0.Sub(start) >= rung/4 { // the first fifth warms up
			rtts.Add(t2.Sub(t0))
			calls.Add(t1.Sub(t0))
		}
	}
	return float64(rtts.Median()), float64(calls.Median()), nil
}

// serveEcho bounces every packet back until quit closes.
func serveEcho(quit <-chan struct{}, recv func(time.Duration) *wire.Packet, reply func(*wire.Packet) error) {
	for {
		select {
		case <-quit:
			return
		default:
		}
		p := recv(20 * time.Millisecond)
		if p == nil {
			continue
		}
		err := reply(p)
		fabric.ReleasePacket(p)
		if err != nil {
			return // the driving side misses the reply and reports it
		}
	}
}

// rawStream sends size-byte messages one way, as frames of frame bytes,
// in bursts the receiver drains through PollBatch before the next burst
// starts, for about rung; it returns messages per second.
func rawStream(ep0, ep1 fabric.Endpoint, size, frame int, rung time.Duration) (float64, error) {
	const burstBytes = 1 << 20 // a burst stays within what transports buffer without the receiver
	perMsg := size / frame
	burst := burstBytes / size
	if burst > 64 {
		burst = 64
	}
	payload := make([]byte, frame)
	batch := make([]*wire.Packet, 64)
	var seq uint64
	var msgs int
	var t0 time.Time
	start := time.Now()
	for time.Since(start) < rung+rung/4 {
		if t0.IsZero() && time.Since(start) >= rung/4 {
			t0 = time.Now()
		}
		for i := 0; i < burst*perMsg; i++ {
			seq++
			if err := sendRaw(ep0, 0, 1, seq, payload); err != nil {
				return 0, err
			}
		}
		sent := time.Now()
		for got, empty := 0, 0; got < burst*perMsg; {
			k := ep1.PollBatch(batch)
			if k == 0 {
				if time.Since(sent) > 10*time.Second {
					return 0, fmt.Errorf("received %d of %d frames within 10s", got, burst*perMsg)
				}
				// Yield to the transport's own goroutines; sleep after a
				// long dry stretch so that a small host does not starve them.
				if empty++; empty < 256 {
					runtime.Gosched()
				} else {
					time.Sleep(5 * time.Microsecond)
				}
				continue
			}
			empty = 0
			for _, p := range batch[:k] {
				fabric.ReleasePacket(p)
			}
			got += k
		}
		if !t0.IsZero() {
			msgs += burst
		}
	}
	return float64(msgs) / time.Since(t0).Seconds(), nil
}
