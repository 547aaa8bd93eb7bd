// Package nic implements the rail drivers the engine submits requests to.
// A driver pairs a packet transport (a fabric.Endpoint) with a host cost
// model (internal/ptime): submission burns CPU on whichever goroutine
// calls it — that is the property PIOMan's offloading exploits — while
// propagation is the transport's business: modeled wire time on the
// simulator (fabric/simfab) or real sockets (fabric/tcpfab).
//
// Three presets model the rails the paper's NewMadeleine supports:
//
//   - MX: Myrinet MYRI-10G under the MX driver. PIO for very small
//     packets (≤128 B), copy-to-registered-buffer + DMA for eager messages,
//     and a mandatory rendezvous above 32 KiB ("Myrinet's MX driver uses a
//     rendezvous protocol for messages larger than 32 kB", §2.3).
//   - SHM: the intra-node shared-memory channel of §4.3, low latency and
//     high bandwidth but a copy on both sides.
//   - TCP: a lossless in-order TCP/Ethernet-class rail with much higher
//     latency, used by the multirail strategy tests.
//
// A fourth preset, RealParams, carries no simulated costs at all: it is
// the driver for rails whose endpoint is a real transport, where sockets
// and syscalls cost genuine time.
package nic

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/ptime"
	"pioman/internal/telemetry"
	"pioman/internal/wire"
)

// HeaderBytes is the wire size of a protocol header (tag, seq, msgid,
// lengths); RTS and CTS packets are header-only.
const HeaderBytes = 32

// Header identifies one protocol packet.
type Header struct {
	Src, Dst int
	Tag      int
	Seq      uint64
	MsgID    uint64
}

// Params fully describes a simulated rail driver.
type Params struct {
	Name string
	// Link is the wire model for this rail.
	Link wire.LinkParams
	// Cost is the host-side CPU cost model.
	Cost ptime.CostModel
	// PIOMax is the largest payload sent through PIO (0 disables PIO).
	PIOMax int
	// EagerMax is the largest payload sent eagerly; larger messages must
	// use the rendezvous protocol.
	EagerMax int
	// MTU bounds a single packet's payload (aggregation limit).
	MTU int
	// RecvCopies reports whether reception of eager data costs a copy on
	// the receiving core (true for SHM's double copy; for MX the NIC
	// DMAs into host memory, and the match-time copy is charged by the
	// engine only when the message was unexpected).
	RecvCopies bool
	// StripeWeight is the rail's relative bandwidth share, in bytes/µs,
	// used by the multirail strategy when splitting one rendezvous
	// payload across bonded rails: a rail declaring twice the weight
	// carries twice the bytes. Zero keeps the rail out of striping —
	// the right value for rails that only serve a subset of peers, such
	// as the simulated intra-node SHM channel. Presets seed it from the
	// link model (simulated rails) or from a raw-endpoint loopback echo
	// measured when the preset was written (real transports); runtime
	// measurements can override it per driver via Driver.SetStripeWeight.
	StripeWeight float64
}

// MXParams models the paper's testbed NIC.
func MXParams() Params {
	return Params{
		Name:         "mx",
		Link:         wire.MYRI10G(),
		Cost:         ptime.DefaultCostModel(),
		PIOMax:       128,
		EagerMax:     32 << 10,
		MTU:          32 << 10,
		StripeWeight: 1250, // the MYRI-10G link's serialization bandwidth
	}
}

// SHMParams models the intra-node shared-memory channel. It declares no
// stripe weight: the simulated SHM rail only reaches threads of the same
// node, so the multirail strategy must never place cross-node rendezvous
// chunks on it (contrast ShmParams, the real transport preset, whose
// rings genuinely span processes).
func SHMParams() Params {
	return Params{
		Name: "shm",
		Link: wire.LinkParams{Latency: 300 * time.Nanosecond, BytesPerUS: 5000},
		Cost: ptime.CostModel{
			CopyBytesPerUS: 2500,
			PIOBytesPerUS:  2500, // a store is a store within a node
			SubmitOverhead: 150 * time.Nanosecond,
			DMASetup:       300 * time.Nanosecond,
		},
		PIOMax:     512,
		EagerMax:   16 << 10,
		MTU:        16 << 10,
		RecvCopies: true,
	}
}

// RealParams describes a rail whose endpoint is a real transport
// (fabric/tcpfab): no modeled CPU costs and no PIO path — the socket stack
// charges genuine time instead. The 32 KiB rendezvous threshold matches
// the MX preset so protocol selection behaves identically on both. The
// stripe weight is a seed, not a tracked number: a raw tcpfab loopback
// echo of 64 KiB measured p50 ≈ 26.6 µs on the development host when the
// preset was written (≈ 4900 B/µs of round-trip bandwidth; go test -bench
// RTT ./internal/fabric re-measures it). Bonded launchers re-measure and
// override it per host.
func RealParams() Params {
	return Params{
		Name:         "real",
		EagerMax:     32 << 10,
		MTU:          1 << 20,
		StripeWeight: 4900,
	}
}

// ShmParams describes a rail whose endpoint is a real shared-memory
// transport (fabric/shmfab): ranks on the same host exchanging packets
// through mmap'd ring files. Unlike SHMParams — the *simulated* intra-node
// channel, which charges modeled copy costs against virtual links — this
// preset carries no simulated costs at all: the genuine ring copies and
// cache traffic cost real time, exactly as RealParams does for sockets.
// The rail keeps the name "shm" so mpi.Config.Fabrics can swap the real
// transport in for the simulated SHM rail under the same key, and the
// 32 KiB rendezvous threshold matches RealParams so protocol selection
// behaves identically across the real transports. Unlike the simulated
// SHM preset this rail carries a stripe weight: shmfab reaches every rank
// sharing the ring directory, so a bonded world may stripe rendezvous
// payloads across it. Seeded the same way as RealParams: a raw shmfab
// echo of 64 KiB measured p50 ≈ 18.8 µs on the development host
// (≈ 7000 B/µs).
func ShmParams() Params {
	return Params{
		Name:         "shm",
		EagerMax:     32 << 10,
		MTU:          1 << 20,
		StripeWeight: 7000,
	}
}

// UdpParams describes a rail whose endpoint is the real UDP-datagram
// transport (fabric/udpfab): no simulated costs, like every real-
// transport preset. The MTU must fit udpfab's single-datagram frame
// ceiling (~64 KiB minus the reliability and codec headers), so
// rendezvous payloads chunk at 32 KiB; the 32 KiB eager threshold
// matches RealParams so protocol selection behaves identically across
// the real transports. The stripe weight is seeded below the TCP rail's
// baseline: the reliability sublayer's acking and retransmit window
// cost bandwidth a kernel TCP stack gets for free.
func UdpParams() Params {
	return Params{
		Name:         "udp",
		EagerMax:     32 << 10,
		MTU:          32 << 10,
		StripeWeight: 2500,
	}
}

// TCPParams models a TCP/10GbE rail.
func TCPParams() Params {
	return Params{
		Name: "tcp",
		Link: wire.LinkParams{Latency: 15 * time.Microsecond, BytesPerUS: 1100},
		Cost: ptime.CostModel{
			CopyBytesPerUS: 2500,
			PIOBytesPerUS:  0, // no PIO path through a socket
			SubmitOverhead: 2 * time.Microsecond,
			DMASetup:       2 * time.Microsecond,
		},
		PIOMax:       0,
		EagerMax:     64 << 10,
		MTU:          64 << 10,
		StripeWeight: 1100, // the modeled 10GbE serialization bandwidth
	}
}

// Stats counts driver activity.
type Stats struct {
	EagerSent  uint64
	EagerBytes uint64
	PIOSent    uint64
	RTSSent    uint64
	CTSSent    uint64
	DataSent   uint64
	DataBytes  uint64
	Polls      uint64
	Recvs      uint64
	// PollBatches counts non-empty batched drains (PollBatch calls that
	// returned at least one frame); PolledFrames counts the frames those
	// drains returned. Their ratio is the receive path's batch occupancy:
	// how many frames each paid-for inbox visit amortized. A ratio above
	// 1 means batching engages; at exactly 1 every drain returned a
	// single frame. Empty drains are deliberately not
	// counted — idle polling would otherwise flatten the occupancy
	// signal to near zero.
	PollBatches  uint64
	PolledFrames uint64
	// SendErrs counts submissions the transport rejected synchronously
	// (endpoint closed, peer unreachable, payload too large) — always
	// zero on the simulator. A real transport can also lose packets it
	// accepted, when their stream later fails; that loss surfaces on the
	// endpoint itself (tcpfab's LostFrames), not here, so SendErrs == 0
	// alone does not prove nothing was dropped.
	SendErrs uint64
}

// Driver is one endpoint of a rail: the node ep.Self() on ep's fabric.
type Driver struct {
	p    Params
	ep   fabric.Endpoint
	self int
	// captures records the endpoint's fabric.SendCapturer capability:
	// when true, Send consumes packets fully, so the driver recycles
	// outbound packet structs through the fabric packet pool instead of
	// leaving one heap allocation per submission to the GC.
	captures bool
	// encoder is the endpoint's fabric.FrameEncoder capability, nil when
	// the transport cannot build a frame in its own memory: SendAggr
	// then encodes the train into a pooled buffer for Send.
	encoder fabric.FrameEncoder
	// backlog is the endpoint's fabric.Backlogger capability, nil when
	// the transport models no transmit horizon (every real one).
	backlog fabric.Backlogger
	// goroutineFed records the endpoint's fabric.GoroutineFed capability:
	// a goroutine of the endpoint also moves arrivals toward PollBatch.
	goroutineFed bool
	// maxFrame is the endpoint's hard single-frame payload ceiling
	// (fabric.PayloadLimiter), 0 when the transport declares none. The
	// engine consults it before posting a rendezvous payload as one
	// frame: a transport like udpfab, whose frames are single datagrams,
	// would refuse the submission outright.
	maxFrame int
	// stripeWeight is the live striping weight (float64 bits): it starts
	// at Params.StripeWeight and a caller may replace it at runtime with
	// SetStripeWeight (say, from a calibration run), so it lives outside
	// the immutable Params copy. The engine never changes it.
	stripeWeight atomic.Uint64

	// Activity counters. telemetry.Counter is the same single atomic
	// word the old atomic.Uint64 fields were — every increment below is
	// one uncontended atomic add — but the counters can now join a
	// telemetry.Registry (RegisterMetrics) without a parallel set of
	// names or a snapshot adapter.
	eagerSent  telemetry.Counter
	eagerBytes telemetry.Counter
	pioSent    telemetry.Counter
	rtsSent    telemetry.Counter
	ctsSent    telemetry.Counter
	dataSent   telemetry.Counter
	dataBytes  telemetry.Counter
	polls      telemetry.Counter
	recvs      telemetry.Counter
	batches    telemetry.Counter
	batchedPks telemetry.Counter
	sendErrs   telemetry.Counter

	// occupancy, when attached by RegisterMetrics, records the frame
	// count of every non-empty PollBatch drain — the live distribution
	// behind the PollBatches/PolledFrames ratio. Nil (one predictable
	// branch in PollBatch) until a registry asks for it, so unmetered
	// runs pay nothing extra.
	occupancy *telemetry.Histogram
}

// New returns a driver submitting to ep with rail parameters p. A rail
// whose MTU (after defaulting) exceeds the endpoint's hard frame ceiling
// (fabric.PayloadLimiter) is rejected here, at construction: undetected,
// the mismatch would only surface when a rendezvous chunk sized to the
// MTU is refused mid-transfer — a silent loss seen only as a SendErrs
// tick.
func New(p Params, ep fabric.Endpoint) *Driver {
	if ep == nil {
		panic("nic: nil endpoint")
	}
	if p.MTU <= 0 {
		p.MTU = 64 << 10
	}
	maxFrame := 0
	if lim, ok := ep.(fabric.PayloadLimiter); ok {
		maxFrame = lim.MaxPayload()
		if p.MTU > maxFrame {
			panic(fmt.Sprintf("nic: rail %q MTU %d exceeds its fabric's payload limit %d",
				p.Name, p.MTU, maxFrame))
		}
	}
	d := &Driver{p: p, ep: ep, self: ep.Self(), maxFrame: maxFrame}
	d.stripeWeight.Store(math.Float64bits(p.StripeWeight))
	if c, ok := ep.(fabric.SendCapturer); ok && c.SendCaptures() {
		d.captures = true
	}
	d.backlog, _ = ep.(fabric.Backlogger)
	d.encoder, _ = ep.(fabric.FrameEncoder)
	if g, ok := ep.(fabric.GoroutineFed); ok && g.GoroutineFed() {
		d.goroutineFed = true
	}
	return d
}

// send submits p to the transport, counting rejections. Send failures are
// absorbed here: the engine's protocols treat a dead transport like a
// silent wire (requests stay pending until shutdown), and SendErrs —
// together with the transport's own asynchronous-loss counter, for
// packets that fail after submission — makes the loss observable.
//
// Every submission path draws p from the fabric packet pool (outPacket).
// A capturing endpoint consumes it before Send returns, so the struct is
// recycled here; over the simulator the packet itself rides the modeled
// wire, and the receiving engine releases it after processing — either
// way the structs circulate instead of churning the GC.
func (d *Driver) send(p *wire.Packet) {
	if err := d.ep.Send(p); err != nil {
		d.sendErrs.Add(1)
	}
	if d.captures {
		fabric.ReleasePacket(p)
	}
}

// outPacket returns a zeroed packet struct for one submission, drawn
// from the fabric packet pool. Ownership passes to send.
func (d *Driver) outPacket() *wire.Packet { return fabric.GetPacket() }

// Name returns the rail name.
func (d *Driver) Name() string { return d.p.Name }

// Self returns this endpoint's node id.
func (d *Driver) Self() int { return d.self }

// EagerMax returns the rendezvous threshold.
func (d *Driver) EagerMax() int { return d.p.EagerMax }

// StripeWeight returns the rail's live striping weight — the relative
// bandwidth share the multirail strategy gives this rail. Zero keeps the
// rail out of striping.
func (d *Driver) StripeWeight() float64 {
	return math.Float64frombits(d.stripeWeight.Load())
}

// SetStripeWeight sets the striping weight at runtime, e.g. to a
// bandwidth actually measured on this host instead of the preset's
// declared baseline. Negative weights are clamped to zero.
func (d *Driver) SetStripeWeight(w float64) {
	if w < 0 {
		w = 0
	}
	d.stripeWeight.Store(math.Float64bits(w))
}

// LostFrames reports frames the transport accepted in Send and later
// lost (a failed stream, a bounded Close drain) — the asynchronous half
// of the rail's loss signal, SendErrs being the synchronous half. Rails
// whose endpoint keeps no loss accounting (the simulator never loses
// frames) report zero.
func (d *Driver) LostFrames() uint64 {
	if lc, ok := d.ep.(fabric.LossCounter); ok {
		return lc.LostFrames()
	}
	return 0
}

// Losses is the rail's whole loss signal: SendErrs plus LostFrames,
// read without building a Stats snapshot. The engine compares it across
// a span submission or a probe round trip to judge the rail.
func (d *Driver) Losses() uint64 { return d.sendErrs.Load() + d.LostFrames() }

// GoroutineFed reports whether a goroutine of the rail's endpoint also
// moves its arrivals, beside or instead of the poll
// (fabric.GoroutineFed): a thread spinning on such a rail has to yield
// its processor between empty polls or it starves its own delivery.
func (d *Driver) GoroutineFed() bool { return d.goroutineFed }

// MTU returns the per-packet payload bound.
func (d *Driver) MTU() int { return d.p.MTU }

// MaxFrame returns the transport's hard single-frame payload ceiling
// (fabric.PayloadLimiter), or 0 when the endpoint declares none. Unlike
// the MTU — a tuning parameter — exceeding this in one submission is
// refused by the transport outright.
func (d *Driver) MaxFrame() int { return d.maxFrame }

// SendEager transmits payload eagerly. The caller's core pays the
// submission cost: descriptor setup plus either a PIO transfer (very small
// payloads) or a copy into the registered send buffer. This is the
// "several dozens of microseconds" cost of §2.2 that offloading hides.
func (d *Driver) SendEager(h Header, payload []byte) {
	n := len(payload)
	if n > d.p.EagerMax {
		panic(fmt.Sprintf("nic %s: eager send of %d bytes above threshold %d", d.p.Name, n, d.p.EagerMax))
	}
	ptime.SpinFor(d.p.Cost.SubmitOverhead)
	if d.p.PIOMax > 0 && n <= d.p.PIOMax {
		d.p.Cost.ChargePIO(n)
		d.pioSent.Add(1)
	} else {
		d.p.Cost.ChargeCopy(n)
		ptime.SpinFor(d.p.Cost.DMASetup)
	}
	d.eagerSent.Add(1)
	d.eagerBytes.Add(uint64(n))
	p := d.outPacket()
	p.Kind, p.Src, p.Dst, p.Tag = wire.PktEager, h.Src, h.Dst, h.Tag
	p.Seq, p.MsgID, p.Payload = h.Seq, h.MsgID, payload
	p.WireLen = n + HeaderBytes
	d.send(p)
}

// SendRTS posts a rendezvous request-to-send: header-only, cheap. The
// payload carries the message length plus the sender engine's session id
// (DecodeRTS reads them back), so a receiver can tell a restarted
// sender's fresh rendezvous stream from a stale incarnation's. A replay —
// the engine's acked-replay timer re-posting an unanswered RTS — is the
// same packet with Offset set to 1, the replay marker: the receiver
// handles it outside the per-sender sequence ordering (the original RTS
// may already have been processed), answering idempotently with a fresh
// CTS or DATA-ack. The payload is a fabric buffer-pool borrow, flagged
// Pooled: whoever releases the packet — send on a capturing rail, the
// receiving engine over the simulator — returns the buffer.
func (d *Driver) SendRTS(h Header, msgLen int, session uint64, replay bool) {
	ptime.SpinFor(d.p.Cost.SubmitOverhead)
	d.rtsSent.Add(1)
	p := d.outPacket()
	p.Kind, p.Src, p.Dst, p.Tag = wire.PktRTS, h.Src, h.Dst, h.Tag
	p.Seq, p.MsgID = h.Seq, h.MsgID
	if replay {
		p.Offset = 1
	}
	p.Payload, p.Pooled = bufpool.Get(rtsBytes), true
	binary.LittleEndian.PutUint64(p.Payload, uint64(msgLen))
	binary.LittleEndian.PutUint64(p.Payload[8:], session)
	p.WireLen = HeaderBytes
	d.send(p)
}

// SendControl posts a header-only control frame of the given kind:
// wire.PktCTS answers a rendezvous handshake, wire.PktDataAck
// acknowledges a fully reassembled rendezvous payload (the sender keeps
// the transfer's replay state until it arrives; docs/FABRIC.md,
// "Self-healing"), and wire.PktPing / wire.PktPong are a rail health
// probe and its answer, the pong echoing the probe's Seq. A CTS counts
// in Stats.CTSSent.
func (d *Driver) SendControl(kind wire.PacketKind, h Header) {
	ptime.SpinFor(d.p.Cost.SubmitOverhead)
	if kind == wire.PktCTS {
		d.ctsSent.Add(1)
	}
	p := d.outPacket()
	p.Kind, p.Src, p.Dst, p.Tag = kind, h.Src, h.Dst, h.Tag
	p.Seq, p.MsgID, p.WireLen = h.Seq, h.MsgID, HeaderBytes
	d.send(p)
}

// SendData transmits a rendezvous payload zero-copy: the NIC DMAs straight
// from the application buffer, so the CPU pays only the DMA programming
// cost regardless of size. offset tags the chunk's position within the
// message so the multirail strategy can split one message across rails.
func (d *Driver) SendData(h Header, offset int, payload []byte) {
	ptime.SpinFor(d.p.Cost.SubmitOverhead)
	ptime.SpinFor(d.p.Cost.DMASetup)
	d.dataSent.Add(1)
	d.dataBytes.Add(uint64(len(payload)))
	p := d.outPacket()
	p.Kind, p.Src, p.Dst, p.Tag = wire.PktData, h.Src, h.Dst, h.Tag
	p.Seq, p.MsgID, p.Offset, p.Payload = h.Seq, h.MsgID, offset, payload
	p.WireLen = len(payload) + HeaderBytes
	d.send(p)
}

// SendAggr transmits an aggregated train of eager packs as one wire packet
// (the optimizer's data-aggregation strategy): an n-byte payload that
// encode writes. The caller's core pays the same copy cost the
// individual packs would have (they are copied into one registered
// buffer). A transport that can build the frame in its own memory
// (fabric.FrameEncoder: shmfab's ring slot) has encode write the train
// there; otherwise encode fills a fabric buffer-pool borrow, and the
// packet is flagged Pooled, so whoever releases it — send on a capturing
// rail, the receiving engine over the simulator — returns the buffer.
func (d *Driver) SendAggr(h Header, n int, encode func(payload []byte)) {
	ptime.SpinFor(d.p.Cost.SubmitOverhead)
	d.p.Cost.ChargeCopy(n)
	ptime.SpinFor(d.p.Cost.DMASetup)
	d.eagerSent.Add(1)
	d.eagerBytes.Add(uint64(n))
	p := d.outPacket()
	p.Kind, p.Src, p.Dst, p.Tag = wire.PktAggr, h.Src, h.Dst, h.Tag
	p.Seq, p.MsgID = h.Seq, h.MsgID
	p.WireLen = n + HeaderBytes
	if d.encoder != nil && d.encoder.SendEncoded(p, n, encode) {
		fabric.ReleasePacket(p)
		return
	}
	p.Payload, p.Pooled = bufpool.Get(n), true
	encode(p.Payload)
	d.send(p)
}

// PollBatch drains up to len(into) arrived packets in one endpoint
// visit, returning how many it wrote — the amortized receive path the
// engine's progress loop drives. If the rail's reception path costs a
// copy (SHM), the caller's core pays it here, per frame; the
// batch-occupancy counters (Stats.PollBatches, Stats.PolledFrames)
// record how much each visit amortized.
func (d *Driver) PollBatch(into []*wire.Packet) int {
	d.polls.Add(1)
	n := d.ep.PollBatch(into)
	if n > 0 {
		d.batches.Add(1)
		d.batchedPks.Add(uint64(n))
		d.occupancy.Observe(uint64(n))
		d.recvs.Add(uint64(n))
		if d.p.RecvCopies {
			for _, p := range into[:n] {
				if len(p.Payload) > 0 {
					d.p.Cost.ChargeCopy(len(p.Payload))
				}
			}
		}
	}
	return n
}

// BlockingPoll waits up to timeout for a packet, sleeping rather than
// spinning. It models the interrupt-based blocking call used when no core
// is idle (§3.2 "Rendezvous management").
func (d *Driver) BlockingPoll(timeout time.Duration) *wire.Packet {
	p := d.ep.BlockingRecv(timeout)
	if p != nil {
		d.recvs.Add(1)
		if d.p.RecvCopies && len(p.Payload) > 0 {
			d.p.Cost.ChargeCopy(len(p.Payload))
		}
	}
	return p
}

// CanSubmit reports whether the rail toward dst can accept another eager
// submission: NewMadeleine's scheduler feeds a NIC "when it becomes idle",
// so submission is gated on the link's backlog staying within roughly one
// fragment of serialization. While the gate is closed, packs accumulate in
// the waiting list — which is exactly when the aggregation strategy forms
// trains. Only a transport with a modeled transmit horizon
// (fabric.Backlogger — the simulator) ever closes the gate; real
// transports run their own flow control.
func (d *Driver) CanSubmit(dst int) bool {
	if d.backlog == nil {
		return true
	}
	return d.backlog.Backlog(dst) <= d.p.Link.FragSlot()+d.p.Link.PacketGap
}

// Endpoint returns the transport the driver submits to.
func (d *Driver) Endpoint() fabric.Endpoint { return d.ep }

// Close shuts the rail's transport down. Sends after Close are counted in
// Stats.SendErrs and dropped.
func (d *Driver) Close() error { return d.ep.Close() }

// ChargeMatchCopy charges the cost of copying an unexpected message from
// the library's unexpected-message pool into the application buffer. The
// paper's receive path performs this copy only when the message was
// unexpected (§2.2).
func (d *Driver) ChargeMatchCopy(n int) { d.p.Cost.ChargeCopy(n) }

// RegisterMetrics registers the driver's counters with reg under
// dot-separated names below prefix (typically "node<rank>.rail.<name>"),
// and attaches a batch-occupancy histogram recording the frame count of
// each non-empty PollBatch drain. lost_frames is registered as a live
// read of the transport's asynchronous loss counter, so a snapshot taken
// within one progress tick of a stream failure already shows the loss.
// Call once per registry; the driver's hot paths are unchanged except
// for the occupancy observation (one bits.Len plus two atomic adds).
func (d *Driver) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(prefix+".eager_sent", "eager messages submitted", d.eagerSent.Load)
	reg.RegisterCounter(prefix+".eager_bytes", "eager payload bytes submitted", d.eagerBytes.Load)
	reg.RegisterCounter(prefix+".pio_sent", "eager messages sent through PIO", d.pioSent.Load)
	reg.RegisterCounter(prefix+".rts_sent", "rendezvous RTS packets sent", d.rtsSent.Load)
	reg.RegisterCounter(prefix+".cts_sent", "rendezvous CTS packets sent", d.ctsSent.Load)
	reg.RegisterCounter(prefix+".data_sent", "rendezvous DATA packets sent", d.dataSent.Load)
	reg.RegisterCounter(prefix+".data_bytes", "rendezvous payload bytes sent", d.dataBytes.Load)
	reg.RegisterCounter(prefix+".polls", "endpoint poll visits", d.polls.Load)
	reg.RegisterCounter(prefix+".recvs", "packets received", d.recvs.Load)
	reg.RegisterCounter(prefix+".poll_batches", "non-empty batched drains", d.batches.Load)
	reg.RegisterCounter(prefix+".polled_frames", "frames returned by batched drains", d.batchedPks.Load)
	reg.RegisterCounter(prefix+".send_errs", "sends rejected synchronously by the transport", d.sendErrs.Load)
	reg.RegisterCounter(prefix+".lost_frames", "frames accepted by the transport and later lost", d.LostFrames)
	// The gauge is an integer, so the weight goes out in thousandths: a
	// weight of 0.004 reads 4 and a change from 1 to 1.9 reads 1000 to
	// 1900, where the whole weight would read 0 and 1 both times.
	reg.RegisterGauge(prefix+".stripe_weight_milli", "live multirail striping weight (bytes/us) × 1000, rounded", func() uint64 {
		return uint64(math.Round(d.StripeWeight() * 1000))
	})
	d.occupancy = reg.Histogram(prefix+".batch_occupancy", "frames per non-empty PollBatch drain")
	// Transports with internal health counters (fabric.MetricSource —
	// udpfab's retransmit/ack/reject series) join under the same prefix.
	if ms, ok := d.ep.(fabric.MetricSource); ok {
		ms.RegisterMetrics(reg, prefix)
	}
}

// Stats returns a snapshot of activity counters.
func (d *Driver) Stats() Stats {
	return Stats{
		EagerSent:    d.eagerSent.Load(),
		EagerBytes:   d.eagerBytes.Load(),
		PIOSent:      d.pioSent.Load(),
		RTSSent:      d.rtsSent.Load(),
		CTSSent:      d.ctsSent.Load(),
		DataSent:     d.dataSent.Load(),
		DataBytes:    d.dataBytes.Load(),
		Polls:        d.polls.Load(),
		Recvs:        d.recvs.Load(),
		PollBatches:  d.batches.Load(),
		PolledFrames: d.batchedPks.Load(),
		SendErrs:     d.sendErrs.Load(),
	}
}

// rtsBytes is the size of an RTS payload: the message length, then the
// sender engine's session id, 8 little-endian bytes each.
const rtsBytes = 16

// DecodeRTS recovers the announced message length and the sender's
// session id from an RTS payload. The payload is outside input: ok is
// false unless it is exactly an RTS payload announcing a non-negative
// length.
func DecodeRTS(b []byte) (msgLen int, session uint64, ok bool) {
	if len(b) == rtsBytes {
		msgLen, session = int(binary.LittleEndian.Uint64(b)), binary.LittleEndian.Uint64(b[8:])
	}
	return msgLen, session, len(b) == rtsBytes && msgLen >= 0
}
