package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pioman/internal/fabric/bufpool"
	"pioman/internal/fabric/simfab"
	"pioman/internal/nic"
	"pioman/internal/piom"
	"pioman/internal/sched"
	"pioman/internal/telemetry"
	"pioman/internal/topo"
	"pioman/internal/wire"
)

// testNode bundles one simulated node.
type testNode struct {
	Sch *sched.Scheduler
	Srv *piom.Server
	Eng *Engine
}

// testCluster wires n nodes over fast links (near-zero modeled costs) so
// logic tests run quickly.
type testCluster struct {
	Nodes []*testNode
}

type clusterOpt func(*clusterParams)

type clusterParams struct {
	cores    int
	mode     Mode
	strategy string
	offload  bool
	adaptive bool
	railsFn  func(node int) []nic.Params
	fabrics  map[string]*wire.Fabric
	blocking bool
	maxRdv   int
	metrics  *telemetry.Registry
}

func withMode(m Mode) clusterOpt       { return func(p *clusterParams) { p.mode = m } }
func withCores(c int) clusterOpt       { return func(p *clusterParams) { p.cores = c } }
func withStrategy(s string) clusterOpt { return func(p *clusterParams) { p.strategy = s } }
func withNoOffload() clusterOpt        { return func(p *clusterParams) { p.offload = false } }
func withBlockingFallback() clusterOpt { return func(p *clusterParams) { p.blocking = true } }
func withMaxPendingRdv(n int) clusterOpt {
	return func(p *clusterParams) { p.maxRdv = n }
}
func withMetrics(reg *telemetry.Registry) clusterOpt {
	return func(p *clusterParams) { p.metrics = reg }
}
func withRails(fn func(node int) []nic.Params) clusterOpt {
	return func(p *clusterParams) { p.railsFn = fn }
}

// fastRail is an MX-shaped rail with negligible timing.
func fastRail() nic.Params {
	p := nic.MXParams()
	p.Link = wire.LinkParams{Latency: 0, BytesPerUS: 1e12}
	p.Cost.CopyBytesPerUS = 1e12
	p.Cost.PIOBytesPerUS = 1e12
	p.Cost.SubmitOverhead = 0
	p.Cost.DMASetup = 0
	return p
}

func newCluster(t testing.TB, n int, opts ...clusterOpt) *testCluster {
	t.Helper()
	params := &clusterParams{
		cores:   4,
		mode:    Multithreaded,
		offload: true,
		railsFn: func(int) []nic.Params { return []nic.Params{fastRail()} },
	}
	for _, o := range opts {
		o(params)
	}
	// One fabric per distinct rail name, shared by all nodes.
	params.fabrics = map[string]*wire.Fabric{}
	for _, rp := range params.railsFn(0) {
		params.fabrics[rp.Name] = wire.NewFabric(n, rp.Link)
	}
	c := &testCluster{}
	for node := 0; node < n; node++ {
		sch := sched.New(sched.Config{
			Machine: topo.Machine{Sockets: 1, CoresPerSocket: params.cores},
		})
		var srv *piom.Server
		if params.mode == Multithreaded {
			srv = piom.NewServer(sch, piom.Config{
				EnableIdleHook: true,
				EnableBlocking: params.blocking,
			})
		}
		var rails []*nic.Driver
		for _, rp := range params.railsFn(node) {
			rails = append(rails, simRail(rp, params.fabrics[rp.Name], node))
		}
		eng := New(node, sch, srv, rails, Config{
			Mode:                 params.mode,
			OffloadEager:         params.offload,
			AdaptiveOffload:      params.adaptive,
			Strategy:             params.strategy,
			maxPendingRdvPerPeer: params.maxRdv,
			Metrics:              params.metrics,
		})
		if srv != nil {
			srv.Start()
		}
		c.Nodes = append(c.Nodes, &testNode{Sch: sch, Srv: srv, Eng: eng})
	}
	t.Cleanup(func() {
		for _, nd := range c.Nodes {
			if nd.Srv != nil {
				nd.Srv.Stop()
			}
			nd.Sch.Shutdown()
		}
	})
	return c
}

// run executes fn as a scheduled thread on node's scheduler and waits.
func (c *testCluster) run(node int, fn func(*sched.Thread)) {
	c.Nodes[node].Sch.Spawn("test", fn).Join()
}

// payload builds a deterministic test pattern.
func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestEagerRoundtripBothModes(t *testing.T) {
	for _, mode := range []Mode{Sequential, Multithreaded} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, 2, withMode(mode))
			data := payload(4096, 1)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				c.run(0, func(th *sched.Thread) {
					s := c.Nodes[0].Eng.Isend(1, 42, data)
					c.Nodes[0].Eng.WaitSend(s, th)
				})
			}()
			buf := make([]byte, 4096)
			var r *RecvReq
			go func() {
				defer wg.Done()
				c.run(1, func(th *sched.Thread) {
					r = c.Nodes[1].Eng.Irecv(0, 42, buf)
					c.Nodes[1].Eng.WaitRecv(r, th)
				})
			}()
			wg.Wait()
			if !bytes.Equal(buf, data) {
				t.Fatal("payload corrupted")
			}
			if r.Len() != 4096 || r.From() != 0 || r.Truncated() {
				t.Fatalf("recv metadata: len=%d from=%d trunc=%v", r.Len(), r.From(), r.Truncated())
			}
		})
	}
}

func TestRendezvousRoundtripBothModes(t *testing.T) {
	for _, mode := range []Mode{Sequential, Multithreaded} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, 2, withMode(mode))
			const size = 256 << 10 // far above the 32K threshold
			data := payload(size, 9)
			buf := make([]byte, size)
			var s *SendReq
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				c.run(0, func(th *sched.Thread) {
					s = c.Nodes[0].Eng.Isend(1, 7, data)
					c.Nodes[0].Eng.WaitSend(s, th)
				})
			}()
			go func() {
				defer wg.Done()
				c.run(1, func(th *sched.Thread) {
					r := c.Nodes[1].Eng.Irecv(0, 7, buf)
					c.Nodes[1].Eng.WaitRecv(r, th)
				})
			}()
			wg.Wait()
			if !s.Rendezvous() {
				t.Fatal("large send did not use rendezvous")
			}
			if !bytes.Equal(buf, data) {
				t.Fatal("rendezvous payload corrupted")
			}
		})
	}
}

func TestUnexpectedMessageThenIrecv(t *testing.T) {
	c := newCluster(t, 2, withMode(Multithreaded))
	data := payload(2048, 3)
	c.run(0, func(th *sched.Thread) {
		s := c.Nodes[0].Eng.Isend(1, 5, data)
		c.Nodes[0].Eng.WaitSend(s, th)
	})
	// Give the receiver's idle cores time to buffer it as unexpected.
	deadline := time.Now().Add(time.Second)
	for c.Nodes[1].Eng.Stats().Unexpected == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Nodes[1].Eng.Stats().Unexpected == 0 {
		t.Fatal("message never landed in the unexpected pool")
	}
	buf := make([]byte, 2048)
	c.run(1, func(th *sched.Thread) {
		r := c.Nodes[1].Eng.Irecv(0, 5, buf)
		if !r.Completed() {
			c.Nodes[1].Eng.WaitRecv(r, th)
		}
	})
	if !bytes.Equal(buf, data) {
		t.Fatal("unexpected-path payload corrupted")
	}
}

func TestUnexpectedRTSThenIrecv(t *testing.T) {
	c := newCluster(t, 2, withMode(Multithreaded))
	const size = 128 << 10
	data := payload(size, 4)
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		c.run(0, func(th *sched.Thread) {
			s := c.Nodes[0].Eng.Isend(1, 5, data)
			c.Nodes[0].Eng.WaitSend(s, th)
		})
	}()
	// Wait for the RTS to be queued unexpected on node 1.
	deadline := time.Now().Add(time.Second)
	for c.Nodes[1].Eng.Stats().Unexpected == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	buf := make([]byte, size)
	c.run(1, func(th *sched.Thread) {
		r := c.Nodes[1].Eng.Irecv(0, 5, buf)
		c.Nodes[1].Eng.WaitRecv(r, th)
	})
	<-sendDone
	if !bytes.Equal(buf, data) {
		t.Fatal("late-posted rendezvous corrupted")
	}
}

func TestAnySourceMatching(t *testing.T) {
	c := newCluster(t, 3, withMode(Multithreaded))
	c.run(2, func(th *sched.Thread) {
		s := c.Nodes[2].Eng.Isend(1, 9, []byte("from two"))
		c.Nodes[2].Eng.WaitSend(s, th)
	})
	buf := make([]byte, 16)
	var r *RecvReq
	c.run(1, func(th *sched.Thread) {
		r = c.Nodes[1].Eng.Irecv(AnySource, 9, buf)
		c.Nodes[1].Eng.WaitRecv(r, th)
	})
	if r.From() != 2 {
		t.Fatalf("From = %d, want 2", r.From())
	}
	if string(buf[:r.Len()]) != "from two" {
		t.Fatalf("payload %q", buf[:r.Len()])
	}
}

func TestTruncationEager(t *testing.T) {
	c := newCluster(t, 2)
	c.run(0, func(th *sched.Thread) {
		s := c.Nodes[0].Eng.Isend(1, 1, payload(100, 0))
		c.Nodes[0].Eng.WaitSend(s, th)
	})
	buf := make([]byte, 40)
	var r *RecvReq
	c.run(1, func(th *sched.Thread) {
		r = c.Nodes[1].Eng.Irecv(0, 1, buf)
		c.Nodes[1].Eng.WaitRecv(r, th)
	})
	if !r.Truncated() || r.Len() != 40 {
		t.Fatalf("truncated=%v len=%d, want true,40", r.Truncated(), r.Len())
	}
}

func TestTagSelectivity(t *testing.T) {
	c := newCluster(t, 2)
	c.run(0, func(th *sched.Thread) {
		a := c.Nodes[0].Eng.Isend(1, 1, []byte("tag one"))
		b := c.Nodes[0].Eng.Isend(1, 2, []byte("tag two"))
		c.Nodes[0].Eng.WaitSend(a, th)
		c.Nodes[0].Eng.WaitSend(b, th)
	})
	buf2 := make([]byte, 16)
	buf1 := make([]byte, 16)
	var r1, r2 *RecvReq
	c.run(1, func(th *sched.Thread) {
		// Post tag 2 first: matching must be by tag, not arrival order.
		r2 = c.Nodes[1].Eng.Irecv(0, 2, buf2)
		c.Nodes[1].Eng.WaitRecv(r2, th)
		r1 = c.Nodes[1].Eng.Irecv(0, 1, buf1)
		c.Nodes[1].Eng.WaitRecv(r1, th)
	})
	if string(buf2[:r2.Len()]) != "tag two" || string(buf1[:r1.Len()]) != "tag one" {
		t.Fatalf("tag mixup: %q / %q", buf1[:r1.Len()], buf2[:r2.Len()])
	}
}

func TestPerSourceTagFIFO(t *testing.T) {
	c := newCluster(t, 2)
	const n = 50
	go c.run(0, func(th *sched.Thread) {
		for i := 0; i < n; i++ {
			s := c.Nodes[0].Eng.Isend(1, 3, []byte{byte(i)})
			c.Nodes[0].Eng.WaitSend(s, th)
		}
	})
	c.run(1, func(th *sched.Thread) {
		for i := 0; i < n; i++ {
			buf := make([]byte, 1)
			r := c.Nodes[1].Eng.Irecv(0, 3, buf)
			c.Nodes[1].Eng.WaitRecv(r, th)
			if buf[0] != byte(i) {
				t.Errorf("message %d out of order: got %d", i, buf[0])
				return
			}
		}
	})
}

func TestOffloadedIsendReturnsFast(t *testing.T) {
	// With a real copy cost, an offloaded Isend must return much faster
	// than the submission itself takes.
	slow := fastRail()
	slow.Cost.CopyBytesPerUS = 10 // 100 µs per KB: 16K -> 1.6ms of copy
	c := newCluster(t, 2, withRails(func(int) []nic.Params { return []nic.Params{slow} }))
	data := payload(16<<10, 2)
	var isendTime time.Duration
	done := make(chan struct{})
	go c.run(1, func(th *sched.Thread) {
		buf := make([]byte, 16<<10)
		for i := 0; i < 3; i++ {
			r := c.Nodes[1].Eng.Irecv(0, 1, buf)
			c.Nodes[1].Eng.WaitRecv(r, th)
		}
		close(done)
	})
	c.run(0, func(th *sched.Thread) {
		// The inline path would pay ~1.6ms of copy deterministically on
		// every call; registration is sub-µs. Taking the fastest of a few
		// attempts filters host-level scheduling stalls without masking a
		// systematic inline submission.
		isendTime = time.Hour
		for attempt := 0; attempt < 3; attempt++ {
			start := time.Now()
			s := c.Nodes[0].Eng.Isend(1, 1, data)
			if el := time.Since(start); el < isendTime {
				isendTime = el
			}
			c.Nodes[0].Eng.WaitSend(s, th)
		}
	})
	<-done
	if isendTime > 500*time.Microsecond {
		t.Fatalf("offloaded Isend took %v on its best attempt, want registration-only (<500µs)", isendTime)
	}
	if c.Nodes[0].Eng.Stats().OffloadSubmits == 0 {
		t.Fatal("no offloaded submissions recorded")
	}
}

func TestSequentialDefersSubmissionToWait(t *testing.T) {
	virtualCPU(t)
	slow := fastRail()
	slow.Cost.CopyBytesPerUS = 10 // 16K -> 1.6ms
	c := newCluster(t, 2, withMode(Sequential),
		withRails(func(int) []nic.Params { return []nic.Params{slow} }))
	data := payload(16<<10, 2)
	c.run(0, func(th *sched.Thread) {
		// Original NewMadeleine: isend only enqueues the pack.
		var s *SendReq
		if paid := chargedBy(func() { s = c.Nodes[0].Eng.Isend(1, 1, data) }); paid != 0 {
			t.Errorf("sequential Isend paid %v of submission cost, want enqueue-only", paid)
		}
		if s.Completed() {
			t.Error("send completed before any library re-entry")
		}
		// The submission cost lands inside the wait.
		want := slow.Cost.CopyCost(len(data))
		if paid := chargedBy(func() { c.Nodes[0].Eng.WaitSend(s, th) }); paid < want {
			t.Errorf("sequential WaitSend paid %v, want >= %v (inline copy)", paid, want)
		}
	})
}

func TestMultithreadedNoOffloadSubmitsInline(t *testing.T) {
	slow := fastRail()
	slow.Cost.CopyBytesPerUS = 10 // 16K -> 1.6ms
	c := newCluster(t, 2, withMode(Multithreaded), withNoOffload(),
		withRails(func(int) []nic.Params { return []nic.Params{slow} }))
	data := payload(16<<10, 2)
	c.run(0, func(th *sched.Thread) {
		start := time.Now()
		s := c.Nodes[0].Eng.Isend(1, 1, data)
		if el := time.Since(start); el < 1500*time.Microsecond {
			t.Errorf("no-offload Isend returned in %v, want inline copy cost", el)
		}
		if !s.Completed() {
			t.Error("inline-submitted send incomplete")
		}
	})
}

func TestAggregationStrategy(t *testing.T) {
	c := newCluster(t, 2, withStrategy("aggreg"))
	const n = 20
	var reqs []*SendReq
	c.run(0, func(th *sched.Thread) {
		for i := 0; i < n; i++ {
			reqs = append(reqs, c.Nodes[0].Eng.Isend(1, 100+i, payload(64, byte(i))))
		}
		for _, s := range reqs {
			c.Nodes[0].Eng.WaitSend(s, th)
		}
	})
	c.run(1, func(th *sched.Thread) {
		for i := 0; i < n; i++ {
			buf := make([]byte, 64)
			r := c.Nodes[1].Eng.Irecv(0, 100+i, buf)
			c.Nodes[1].Eng.WaitRecv(r, th)
			if !bytes.Equal(buf, payload(64, byte(i))) {
				t.Errorf("message %d corrupted", i)
			}
		}
	})
	if c.Nodes[0].Eng.Stats().Aggregated == 0 {
		t.Error("aggregation strategy never aggregated")
	}
}

// bigTransfer sends size patterned bytes from rank 0 to rank 1 and
// fails the test unless they arrive intact.
func bigTransfer(t *testing.T, c *testCluster, size int, seed byte) {
	t.Helper()
	data := payload(size, seed)
	buf := make([]byte, size)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.run(0, func(th *sched.Thread) {
			s := c.Nodes[0].Eng.Isend(1, 1, data)
			c.Nodes[0].Eng.WaitSend(s, th)
		})
	}()
	go func() {
		defer wg.Done()
		c.run(1, func(th *sched.Thread) {
			r := c.Nodes[1].Eng.Irecv(0, 1, buf)
			c.Nodes[1].Eng.WaitRecv(r, th)
		})
	}()
	wg.Wait()
	if !bytes.Equal(buf, data) {
		t.Fatalf("%d-byte transfer corrupted", size)
	}
}

// twoFastRails is a world of two equally weighted inter-node rails.
func twoFastRails(int) []nic.Params {
	a := fastRail()
	b := fastRail()
	b.Name = "tcp2"
	return []nic.Params{a, b}
}

func TestMultirailSplitsLargeData(t *testing.T) {
	c := newCluster(t, 2, withRails(twoFastRails))
	bigTransfer(t, c, 512<<10, 6)
	// Both rails must have carried data chunks.
	for i, rail := range c.Nodes[0].Eng.rails {
		if rail.Stats().DataSent == 0 {
			t.Errorf("rail %d carried no data chunks", i)
		}
	}
}

// TestStripingFollowsRails pins who decides striping: the rails. Two
// rails declaring a stripe weight stripe under either eager strategy;
// one weighted rail beside the zero-weight simulated SHM channel does
// not; and "multirail", once the strategy that turned striping on, is
// an unknown name that must fail loudly like any other.
func TestStripingFollowsRails(t *testing.T) {
	for _, strat := range []string{"fifo", "aggreg"} {
		t.Run(strat, func(t *testing.T) {
			c := newCluster(t, 2, withStrategy(strat), withRails(twoFastRails))
			bigTransfer(t, c, 512<<10, 7)
			for i, rail := range c.Nodes[0].Eng.rails {
				if rail.Stats().DataSent == 0 {
					t.Errorf("two weighted rails under %q: rail %d carried no data chunks", strat, i)
				}
			}
		})
	}
	oneWeighted := newCluster(t, 2, withRails(func(int) []nic.Params { return []nic.Params{fastRail(), nic.SHMParams()} }))
	if oneWeighted.Nodes[0].Eng.stripe {
		t.Error("a world with one weighted rail stripes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal(`parseStrategy("multirail") did not panic`)
		}
	}()
	parseStrategy("multirail")
}

// TestMultirailWeightProportion: striping must follow the rails' declared
// bandwidth weights, not split evenly — that is the entire point of
// bonding a fast and a slow rail.
func TestMultirailWeightProportion(t *testing.T) {
	rails := func(int) []nic.Params {
		a := fastRail()
		a.StripeWeight = 3000
		b := fastRail()
		b.Name = "tcp2"
		b.StripeWeight = 1000
		return []nic.Params{a, b}
	}
	c := newCluster(t, 2, withRails(rails))
	const size = 512 << 10
	bigTransfer(t, c, size, 9)
	a := c.Nodes[0].Eng.rails[0].Stats().DataBytes
	b := c.Nodes[0].Eng.rails[1].Stats().DataBytes
	if a+b != size {
		t.Fatalf("rails carried %d bytes total, want %d", a+b, size)
	}
	// 3:1 weights with MTU-granular chunking: the heavy rail must carry
	// roughly three quarters of the payload.
	if ratio := float64(a) / float64(size); ratio < 0.70 || ratio > 0.80 {
		t.Fatalf("heavy rail carried %.0f%% of the payload, want ~75%%", 100*ratio)
	}
}

// TestMultirailChunksRespectMTU: each striped span must go out as
// MTU-bounded DATA packets, not one arbitrarily large frame — real
// transports refuse frames above their ceiling.
func TestMultirailChunksRespectMTU(t *testing.T) {
	c := newCluster(t, 2, withRails(twoFastRails))
	bigTransfer(t, c, 512<<10, 4) // 256 KiB per rail at equal weights, MTU 32 KiB
	for i, rail := range c.Nodes[0].Eng.rails {
		st := rail.Stats()
		if st.DataSent == 0 {
			t.Errorf("rail %d carried no data chunks", i)
			continue
		}
		mtu := rail.MTU()
		if min := uint64(st.DataBytes) / st.DataSent; min > uint64(mtu) {
			t.Errorf("rail %d averaged %d B per DATA packet, above its %d B MTU", i, min, mtu)
		}
		want := (st.DataBytes + uint64(mtu) - 1) / uint64(mtu)
		if st.DataSent != want {
			t.Errorf("rail %d sent %d DATA packets for %d bytes, want %d MTU-sized chunks",
				i, st.DataSent, st.DataBytes, want)
		}
	}
}

// TestMultirailExcludesZeroWeightRails: a rail with no stripe weight
// never carries cross-node rendezvous chunks — neither one declaring
// none (the simulated intra-node SHM channel) nor one of a striping
// world retuned to zero with SetStripeWeight. Then the whole payload
// goes out on the weighted rail, in MTU-sized chunks when the world
// stripes, and the transfer completes.
func TestMultirailExcludesZeroWeightRails(t *testing.T) {
	const size = 512 << 10
	for _, tc := range []struct {
		name   string
		rails  func(int) []nic.Params
		chunks int // DATA chunks the weighted rail sends
	}{
		{"declared", func(int) []nic.Params { return []nic.Params{fastRail(), nic.SHMParams()} }, 1},
		{"retuned", twoFastRails, size / fastRail().MTU},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2, withRails(tc.rails))
			rails := c.Nodes[0].Eng.rails
			rails[1].SetStripeWeight(0)
			bigTransfer(t, c, size, 3)
			if got := rails[1].Stats().DataSent; got != 0 {
				t.Fatalf("zero-weight rail carried %d cross-node data chunks", got)
			}
			if st := rails[0].Stats(); st.DataBytes != size || st.DataSent != uint64(tc.chunks) {
				t.Fatalf("weighted rail carried %d bytes in %d chunks, want %d bytes in %d", st.DataBytes, st.DataSent, size, tc.chunks)
			}
		})
	}
}

// TestConcurrentRendezvousFromTwoSenders pins the rendezvous matching
// key: msgIDs are allocated per origin engine, so ranks 1 and 2 both
// number their first rendezvous msgID 1 — the receiver must key its
// handshake state by (sender, msgID), or one transfer overwrites the
// other's state (permanent hang) and DATA chunks cross buffers.
func TestConcurrentRendezvousFromTwoSenders(t *testing.T) {
	c := newCluster(t, 3)
	const size = 96 << 10 // rendezvous on the fast rail (EagerMax 32 KiB)
	msg1, msg2 := payload(size, 0x11), payload(size, 0x22)
	buf1, buf2 := make([]byte, size), make([]byte, size)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		c.run(0, func(th *sched.Thread) {
			r1 := c.Nodes[0].Eng.Irecv(1, 1, buf1)
			r2 := c.Nodes[0].Eng.Irecv(2, 2, buf2)
			c.Nodes[0].Eng.WaitRecv(r1, th)
			c.Nodes[0].Eng.WaitRecv(r2, th)
		})
	}()
	for sender := 1; sender <= 2; sender++ {
		sender := sender
		go func() {
			defer wg.Done()
			c.run(sender, func(th *sched.Thread) {
				data := msg1
				if sender == 2 {
					data = msg2
				}
				s := c.Nodes[sender].Eng.Isend(0, sender, data)
				c.Nodes[sender].Eng.WaitSend(s, th)
			})
		}()
	}
	wg.Wait()
	if !bytes.Equal(buf1, msg1) {
		t.Error("rank 1's rendezvous corrupted by rank 2's identical msgID")
	}
	if !bytes.Equal(buf2, msg2) {
		t.Error("rank 2's rendezvous corrupted by rank 1's identical msgID")
	}
}

// TestRdvSpanReassembly exercises the receive-side completion barrier
// directly: chunks arriving in any order, overlapping (a fallback resend
// of a span that actually arrived), or duplicated must complete the
// message exactly once, when every byte is covered.
func TestRdvSpanReassembly(t *testing.T) {
	st := &rdvRecvState{msgLen: 100}
	if n := st.addSpan(60, 80); n != 20 {
		t.Fatalf("first span covered %d bytes, want 20", n)
	}
	if n := st.addSpan(0, 30); n != 30 {
		t.Fatalf("disjoint span covered %d, want 30", n)
	}
	if n := st.addSpan(60, 80); n != 0 {
		t.Fatalf("duplicate span covered %d, want 0", n)
	}
	if n := st.addSpan(20, 70); n != 30 {
		t.Fatalf("overlapping bridge covered %d, want 30", n)
	}
	if st.got != 80 {
		t.Fatalf("covered %d bytes, want 80", st.got)
	}
	if n := st.addSpan(80, 120); n != 20 {
		t.Fatalf("tail span covered %d, want 20 (clamped to msgLen)", n)
	}
	if st.got != st.msgLen {
		t.Fatalf("full coverage reports %d/%d", st.got, st.msgLen)
	}
	if len(st.covered) != 1 {
		t.Fatalf("fully merged state holds %d spans, want 1", len(st.covered))
	}
}

func TestSelfSendViaShm(t *testing.T) {
	rails := func(int) []nic.Params { return []nic.Params{fastRail(), nic.SHMParams()} }
	c := newCluster(t, 2, withRails(rails))
	data := payload(1024, 8)
	buf := make([]byte, 1024)
	c.run(0, func(th *sched.Thread) {
		r := c.Nodes[0].Eng.Irecv(0, 2, buf)
		s := c.Nodes[0].Eng.Isend(0, 2, data)
		c.Nodes[0].Eng.WaitSend(s, th)
		c.Nodes[0].Eng.WaitRecv(r, th)
	})
	if !bytes.Equal(buf, data) {
		t.Fatal("self-send corrupted")
	}
	// The shm rail (index 1) must have carried it.
	if c.Nodes[0].Eng.rails[1].Stats().EagerSent == 0 {
		t.Fatal("self traffic did not use the shm rail")
	}
}

func TestBlockingFallbackDeliversWhileCoresBusy(t *testing.T) {
	c := newCluster(t, 2, withCores(1), withBlockingFallback())
	// Hog node 1's only core with computation; progression must come from
	// the blocking watcher.
	stop := make(chan struct{})
	hogDone := make(chan struct{})
	go func() {
		// Signal only after run (Spawn+Join) fully returns, so the
		// scheduler's thread accounting has settled before Cleanup.
		defer close(hogDone)
		c.run(1, func(th *sched.Thread) {
			for {
				select {
				case <-stop:
					return
				default:
					th.Compute(100 * time.Microsecond)
				}
			}
		})
	}()
	time.Sleep(2 * time.Millisecond)
	c.run(0, func(th *sched.Thread) {
		s := c.Nodes[0].Eng.Isend(1, 4, []byte("bg"))
		c.Nodes[0].Eng.WaitSend(s, th)
	})
	deadline := time.Now().Add(2 * time.Second)
	for c.Nodes[1].Eng.Stats().Unexpected == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-hogDone
	if c.Nodes[1].Eng.Stats().Unexpected == 0 {
		t.Fatal("blocking fallback never processed the arrival")
	}
}

func TestConcurrentSendersManyThreads(t *testing.T) {
	c := newCluster(t, 2, withCores(4))
	const threads = 6
	const msgs = 20
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			c.run(0, func(th *sched.Thread) {
				for m := 0; m < msgs; m++ {
					s := c.Nodes[0].Eng.Isend(1, 1000+ti, payload(256, byte(m)))
					c.Nodes[0].Eng.WaitSend(s, th)
				}
			})
		}(ti)
	}
	var recvWg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		recvWg.Add(1)
		go func(ti int) {
			defer recvWg.Done()
			c.run(1, func(th *sched.Thread) {
				for m := 0; m < msgs; m++ {
					buf := make([]byte, 256)
					r := c.Nodes[1].Eng.Irecv(0, 1000+ti, buf)
					c.Nodes[1].Eng.WaitRecv(r, th)
					if !bytes.Equal(buf, payload(256, byte(m))) {
						t.Errorf("thread %d msg %d corrupted", ti, m)
						return
					}
				}
			})
		}(ti)
	}
	wg.Wait()
	recvWg.Wait()
}

// TestRandomTrafficFuzz sends randomized sizes crossing every protocol
// boundary (PIO, eager, rendezvous) in both modes and checks exactly-once,
// in-order, uncorrupted delivery.
func TestRandomTrafficFuzz(t *testing.T) {
	for _, mode := range []Mode{Sequential, Multithreaded} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			c := newCluster(t, 2, withMode(mode))
			const n = 40
			sizes := make([]int, n)
			for i := range sizes {
				switch rng.Intn(4) {
				case 0:
					sizes[i] = rng.Intn(128) + 1 // PIO
				case 1:
					sizes[i] = rng.Intn(4<<10) + 129 // eager small
				case 2:
					sizes[i] = rng.Intn(28<<10) + 4<<10 // eager large
				case 3:
					sizes[i] = 32<<10 + 1 + rng.Intn(64<<10) // rendezvous
				}
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				c.run(0, func(th *sched.Thread) {
					for i, sz := range sizes {
						s := c.Nodes[0].Eng.Isend(1, 7, payload(sz, byte(i)))
						c.Nodes[0].Eng.WaitSend(s, th)
					}
				})
			}()
			go func() {
				defer wg.Done()
				c.run(1, func(th *sched.Thread) {
					for i, sz := range sizes {
						buf := make([]byte, sz)
						r := c.Nodes[1].Eng.Irecv(0, 7, buf)
						c.Nodes[1].Eng.WaitRecv(r, th)
						if r.Len() != sz {
							t.Errorf("msg %d: len %d != %d", i, r.Len(), sz)
							return
						}
						if !bytes.Equal(buf, payload(sz, byte(i))) {
							t.Errorf("msg %d (size %d) corrupted", i, sz)
							return
						}
					}
				})
			}()
			wg.Wait()
		})
	}
}

func TestEngineValidation(t *testing.T) {
	sch := sched.New(sched.Config{Machine: topo.Machine{Sockets: 1, CoresPerSocket: 1}})
	defer sch.Shutdown()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with no rails did not panic")
			}
		}()
		New(0, sch, nil, nil, Config{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with mismatched rail endpoint did not panic")
			}
		}()
		fab := wire.NewFabric(2, wire.MYRI10G())
		New(0, sch, nil, []*nic.Driver{simRail(nic.MXParams(), fab, 1)}, Config{})
	}()
}

// simRail is node's driver for rail p over the wire simulator w.
func simRail(p nic.Params, w *wire.Fabric, node int) *nic.Driver {
	ep, err := simfab.New(w).Endpoint(node)
	if err != nil {
		panic(err)
	}
	return nic.New(p, ep)
}

func TestUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	parseStrategy("bogus")
}

func TestModeString(t *testing.T) {
	if Sequential.String() != "sequential" || Multithreaded.String() != "multithreaded" {
		t.Fatal("Mode.String broken")
	}
}

// TestWaitSendIdempotent ensures double waits and waits on completed
// requests return immediately.
func TestWaitSendIdempotent(t *testing.T) {
	c := newCluster(t, 2)
	done := make(chan struct{})
	go c.run(1, func(th *sched.Thread) {
		buf := make([]byte, 8)
		r := c.Nodes[1].Eng.Irecv(0, 1, buf)
		c.Nodes[1].Eng.WaitRecv(r, th)
		c.Nodes[1].Eng.WaitRecv(r, th)
		close(done)
	})
	c.run(0, func(th *sched.Thread) {
		s := c.Nodes[0].Eng.Isend(1, 1, []byte("idem"))
		c.Nodes[0].Eng.WaitSend(s, th)
		c.Nodes[0].Eng.WaitSend(s, th)
	})
	<-done
}

func TestStatsAccounting(t *testing.T) {
	c := newCluster(t, 2)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		c.run(1, func(th *sched.Thread) {
			buf := make([]byte, 64<<10)
			r := c.Nodes[1].Eng.Irecv(0, 1, buf)
			c.Nodes[1].Eng.WaitRecv(r, th)
		})
	}()
	c.run(0, func(th *sched.Thread) {
		s := c.Nodes[0].Eng.Isend(1, 1, payload(64<<10, 0)) // rdv
		s2 := c.Nodes[0].Eng.Isend(1, 2, payload(64, 0))    // eager
		c.Nodes[0].Eng.WaitSend(s2, th)
		c.Nodes[0].Eng.WaitSend(s, th)
	})
	<-recvDone
	st := c.Nodes[0].Eng.Stats()
	if st.SendsPosted != 2 {
		t.Errorf("SendsPosted = %d, want 2", st.SendsPosted)
	}
	if st.RdvStarted != 1 {
		t.Errorf("RdvStarted = %d, want 1", st.RdvStarted)
	}
	if st.EagerSubmits == 0 {
		t.Error("EagerSubmits = 0")
	}
}

// aggrEntry is one entry of a decoded train, for the codec tests.
type aggrEntry struct {
	tag  int
	seq  uint64
	data []byte
}

// decodeAggr walks a train the way handlePacket does and collects its
// entries (aliasing payload); nil when validAggr rejects it.
func decodeAggr(payload []byte) []aggrEntry {
	if !validAggr(payload) {
		return nil
	}
	var out []aggrEntry
	for rest := payload; len(rest) > 0; {
		var s aggrEntry
		s.tag, s.seq, s.data, rest = splitAggr(rest)
		out = append(out, s)
	}
	return out
}

func TestAggrCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(8) + 1
		var train []*SendReq
		for i := 0; i < n; i++ {
			train = append(train, &SendReq{
				tag:  rng.Intn(100) - 50,
				seq:  rng.Uint64(),
				data: payload(rng.Intn(512), byte(i)),
			})
		}
		enc := pooledTrain(train)
		subs := decodeAggr(enc)
		if len(subs) != n {
			t.Fatalf("trial %d: decoded %d subs, want %d", trial, len(subs), n)
		}
		for i, s := range subs {
			want := train[i]
			if s.tag != want.tag || s.seq != want.seq || !bytes.Equal(s.data, want.data) {
				t.Fatalf("trial %d sub %d mismatch", trial, i)
			}
		}
		bufpool.Put(enc)
	}
}

func TestDecodeAggrCorruption(t *testing.T) {
	if decodeAggr([]byte{1, 2, 3}) != nil {
		t.Error("short buffer decoded")
	}
	// Valid header claiming more data than present.
	train := []*SendReq{{tag: 1, data: []byte("abcd")}}
	enc := pooledTrain(train)
	if decodeAggr(enc[:len(enc)-2]) != nil {
		t.Error("truncated train decoded")
	}
	if got := decodeAggr(nil); got != nil {
		t.Error("nil payload decoded to non-nil")
	}
	// A length field that wraps negative as an int must not pass.
	binary.LittleEndian.PutUint64(enc[16:], 1<<63)
	if decodeAggr(enc) != nil {
		t.Error("train with a negative entry length decoded")
	}
}

// TestStrategyNames pins the name → eager policy table parseStrategy
// resolves once at construction.
func TestStrategyNames(t *testing.T) {
	for name, want := range map[string]bool{"": true, "aggreg": true, "fifo": false} {
		if got := parseStrategy(name); got != want {
			t.Errorf("parseStrategy(%q) aggregates = %v, want %v", name, got, want)
		}
	}
}

func TestFifoDequeueOrder(t *testing.T) {
	var s sendQueue
	for i := 0; i < 5; i++ {
		s.push(&SendReq{dst: 1, seq: uint64(i)})
	}
	for i := 0; i < 5; i++ {
		tr := s.take(nil, false, 1<<20)
		if len(tr) != 1 || tr[0].seq != uint64(i) {
			t.Fatalf("dequeue %d: got %+v", i, tr)
		}
	}
	if s.peek() != nil {
		t.Fatal("drained queue still pending")
	}
}

func TestAggrDequeueRespectsMTUAndDst(t *testing.T) {
	var s sendQueue
	// Three packs to dst 1 of 100B each, then one to dst 2.
	for i := 0; i < 3; i++ {
		s.push(&SendReq{dst: 1, seq: uint64(i), data: make([]byte, 100)})
	}
	s.push(&SendReq{dst: 2, seq: 99, data: make([]byte, 100)})
	// Every entry costs 24B header + 100B payload; MTU fits exactly three.
	tr := s.take(nil, true, 3*(24+100))
	if len(tr) != 3 {
		t.Fatalf("train len = %d, want 3 same-dst packs", len(tr))
	}
	tr2 := s.take(nil, true, 1<<20)
	if len(tr2) != 1 || tr2[0].dst != 2 {
		t.Fatalf("second train %+v, want the dst-2 pack", tr2)
	}
}

func TestAggrStopsAtDifferentDst(t *testing.T) {
	var s sendQueue
	s.push(&SendReq{dst: 1, data: make([]byte, 10)})
	s.push(&SendReq{dst: 2, data: make([]byte, 10)})
	s.push(&SendReq{dst: 1, data: make([]byte, 10)})
	tr := s.take(nil, true, 1<<20)
	if len(tr) != 1 || tr[0].dst != 1 {
		t.Fatalf("first train %+v", tr)
	}
	tr = s.take(nil, true, 1<<20)
	if len(tr) != 1 || tr[0].dst != 2 {
		t.Fatalf("second train %+v", tr)
	}
}

func TestManyTagsInterleaved(t *testing.T) {
	c := newCluster(t, 2)
	const tags = 8
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.run(0, func(th *sched.Thread) {
			var reqs []*SendReq
			for tg := 0; tg < tags; tg++ {
				reqs = append(reqs, c.Nodes[0].Eng.Isend(1, tg, []byte(fmt.Sprintf("tag-%02d", tg))))
			}
			for _, s := range reqs {
				c.Nodes[0].Eng.WaitSend(s, th)
			}
		})
	}()
	go func() {
		defer wg.Done()
		c.run(1, func(th *sched.Thread) {
			// Post receives in reverse tag order.
			bufs := make([][]byte, tags)
			reqs := make([]*RecvReq, tags)
			for tg := tags - 1; tg >= 0; tg-- {
				bufs[tg] = make([]byte, 16)
				reqs[tg] = c.Nodes[1].Eng.Irecv(0, tg, bufs[tg])
			}
			for tg := 0; tg < tags; tg++ {
				c.Nodes[1].Eng.WaitRecv(reqs[tg], th)
				want := fmt.Sprintf("tag-%02d", tg)
				if string(bufs[tg][:reqs[tg].Len()]) != want {
					t.Errorf("tag %d: got %q", tg, bufs[tg][:reqs[tg].Len()])
				}
			}
		})
	}()
	wg.Wait()
}
