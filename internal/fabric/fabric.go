// Package fabric abstracts where the engine's packets travel. The paper's
// NewMadeleine drives real NICs through per-rail drivers (MX, SHM, TCP);
// this layer gives the reproduction the same pluggability: internal/nic
// submits to a fabric.Endpoint without knowing whether the bytes cross the
// in-process wire simulator (fabric/simfab, the cost-model testbed) or a
// real operating-system transport: TCP sockets (fabric/tcpfab), mmap'd
// shared-memory rings (fabric/shmfab) or UDP datagrams under a
// reliability sublayer (fabric/udpfab).
//
// The contract all four backends must satisfy is pinned down by the
// shared conformance suite in fabric/conformance, which every backend's
// tests run.
package fabric

import (
	"errors"
	"time"

	"pioman/internal/telemetry"
	"pioman/internal/wire"
)

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("fabric: endpoint closed")

// Endpoint is one node's attachment to a fabric: the submission and
// reception port a nic.Driver drives. Its methods are exactly what the
// driver calls — per NIC the event server gets a submission, a poll and
// a blocking call (paper §3.2) and nothing else; everything a backend
// offers beyond that is an optional capability (LossCounter,
// PayloadLimiter, MetricSource, SendCapturer, Backlogger, GoroutineFed)
// the driver resolves once at construction.
//
// Delivery semantics required of every implementation:
//
//   - Delivery is reliable and complete: every sent packet arrives at its
//     destination exactly once (no loss, no duplication, no corruption).
//   - Per-pair order is NOT guaranteed: the simulator's fragmenting wire
//     interleaves small packets past bulk transfers. Receivers that need
//     ordered streams reorder by sequence number, as internal/core does.
//     (tcpfab happens to deliver per-sender FIFO; code must not rely on
//     more than the portable contract.)
//   - Payload bytes and every header field of wire.Packet arrive intact.
//   - Send never blocks on the receiver making progress (backends buffer).
//   - After Close, Send returns ErrClosed and blocked receivers wake with
//     a nil packet once drained.
type Endpoint interface {
	// Self returns this endpoint's node id.
	Self() int
	// Nodes returns the number of nodes the fabric spans.
	Nodes() int
	// Send injects p toward p.Dst. It returns promptly; delivery is
	// asynchronous. A zero p.WireLen is defaulted to len(p.Payload).
	Send(p *wire.Packet) error
	// PollBatch is the non-blocking receive: it moves up to len(into)
	// packets that have fully arrived into the prefix of into and
	// returns how many it wrote, in one call (one inbox lock round trip,
	// one ring scan) per batch rather than per frame. Zero means nothing
	// is visible right now — on a real transport that does not rule out
	// bytes still in a kernel buffer or a ring slot mid-publication —
	// or that into is empty. Each packet is returned exactly once across
	// all PollBatch and BlockingRecv calls, whatever capacities the
	// caller offers and however the two are interleaved; where a backend
	// delivers per-sender FIFO, successive runs preserve it. Ownership
	// of each returned packet passes to the caller under the
	// inbound-buffer rule (docs/FABRIC.md); entries of into past the
	// returned count are untouched.
	PollBatch(into []*wire.Packet) int
	// BlockingRecv waits up to timeout for a packet, sleeping rather than
	// spinning; every goroutine blocked here wakes when packets arrive
	// for it to take. Nil means timeout or endpoint closed (after
	// draining).
	BlockingRecv(timeout time.Duration) *wire.Packet
	// Close shuts the endpoint down: blocked receivers wake, subsequent
	// Sends fail with ErrClosed. Close is idempotent.
	Close() error
}

// Backlogger is an optional Endpoint capability: a transport whose
// transmit path has a modeled occupancy reports it here, and the nic
// driver gates the optimizer's feed-on-idle policy on it. Only the
// simulator implements it (the modeled link horizon); real transports
// run their own flow control, so their submission gate is always open.
type Backlogger interface {
	// Backlog reports how far into the future the transmit path toward
	// dst is occupied — zero when idle.
	Backlog(dst int) time.Duration
}

// GoroutineFed is an optional Endpoint capability: GoroutineFed reports
// that a goroutine of the endpoint also moves frames toward PollBatch,
// so a caller that polls in a loop without ever leaving its processor
// can starve the goroutine that would deliver the frame it polls for.
// tcpfab's and udpfab's PollBatch read their sockets themselves, and
// the endpoint goroutines (tcpfab's pollers, udpfab's reader) are the
// fallback for frames that arrive while no thread polls. The
// engine follows an unworked polling pass with runtime.Gosched on such
// rails (docs/PERF.md, "Cooperative waits"). Transports whose PollBatch
// alone moves the frames (shmfab scans its rings, simfab its modeled
// wire) must not implement it: a poll there is the progress, and
// yielding between polls only feeds whoever else is runnable.
type GoroutineFed interface {
	// GoroutineFed reports whether a goroutine the endpoint runs also
	// moves arrivals toward PollBatch.
	GoroutineFed() bool
}

// LossCounter is an optional Endpoint capability: transports that can
// lose frames after Send accepted them (a stream that fails under queued
// writes, a bounded Close drain) expose the running count here. Together
// with nic.Stats.SendErrs — the synchronous rejections — it is the full
// loss signal the engine's multirail failover watches when deciding to
// re-stripe a rendezvous onto a surviving rail. Counts are an upper
// bound: a frame counted lost may still have reached the peer.
type LossCounter interface {
	// LostFrames returns the number of frames accepted and later lost.
	LostFrames() uint64
}

// PayloadLimiter is an optional Endpoint capability: transports that
// frame payloads with a hard size ceiling (everything built on this
// package's codec) report it here, so a world can reject a rail whose
// configured MTU could never fit a frame at construction time instead of
// failing mid-rendezvous.
type PayloadLimiter interface {
	// MaxPayload returns the largest payload one Send can carry.
	MaxPayload() int
}

// MetricSource is an optional Endpoint capability: transports whose
// internals keep health counters beyond the portable contract — udpfab's
// retransmit/ack/duplicate/reject accounting is the motivating case —
// register them here. The nic driver forwards its own RegisterMetrics
// call to the endpoint, so a rail's transport-level series appear under
// the same "node<rank>.rail.<name>" prefix as the driver's portable
// counters, with no per-backend wiring above the fabric layer.
type MetricSource interface {
	// RegisterMetrics registers the transport's internal counters with
	// reg under dot-separated names below prefix.
	RegisterMetrics(reg *telemetry.Registry, prefix string)
}

// Fabric hands out the endpoints of a communication domain. In-process
// backends (simfab, tcpfab.Local) serve every rank; a distributed backend
// serves only the local process's rank and errors for remote ones.
type Fabric interface {
	// Nodes returns the number of nodes the fabric spans.
	Nodes() int
	// Endpoint returns rank's attachment point.
	Endpoint(rank int) (Endpoint, error)
	// Close releases every endpoint and the underlying transport.
	Close() error
}
