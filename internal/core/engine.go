// Package core is the NewMadeleine analog: the communication engine that
// the paper extends with PIOMan. It implements the three-layer design of
// Fig. 3 — the application enqueues packs and returns to computing; the
// optimizer/scheduler picks packs when a rail is free (strategies: FIFO,
// aggregation; large rendezvous stripe across every weighted rail);
// drivers submit to the wire — plus the two protocols the evaluation
// exercises:
//
//   - eager transfers (≤ the rail's rendezvous threshold): payload is
//     copied into a registered buffer and PIO/DMA'd; the copy is the
//     CPU-hungry step §2.2 offloads to idle cores;
//   - rendezvous transfers (> threshold): an RTS/CTS handshake followed by
//     a zero-copy DMA, whose reactivity §2.3 guarantees with background
//     progression.
//
// The engine runs in one of two modes: Sequential reproduces the original
// NewMadeleine baseline (all processing on the communicating thread, and
// progress only inside explicit waits); Multithreaded is the PIOMan-enabled
// version (registration-only sends, progress driven by idle cores, timer
// tasklets and blocking fallbacks through internal/piom).
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"pioman/internal/nic"
	"pioman/internal/piom"
	"pioman/internal/sched"
	"pioman/internal/sync2"
	"pioman/internal/telemetry"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// Mode selects the engine's execution model.
type Mode int

// Engine modes.
const (
	// Sequential is the paper's baseline: the communicating thread does
	// all processing; nothing progresses between calls.
	Sequential Mode = iota
	// Multithreaded is the PIOMan-enabled engine: communication
	// operations run as events on whatever core is available.
	Multithreaded
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Sequential {
		return "sequential"
	}
	return "multithreaded"
}

// AnySource matches receives against any sender.
const AnySource = -1

// Config parameterizes an Engine.
type Config struct {
	// Mode selects baseline vs PIOMan-enabled behaviour.
	Mode Mode
	// OffloadEager, in Multithreaded mode, keeps eager submission out of
	// Isend (the §2.2 offload). Setting it false submits inline even in
	// Multithreaded mode — an ablation isolating rendezvous progression.
	OffloadEager bool
	// AdaptiveOffload implements the strategy the paper's conclusion
	// leaves as future work ("an adaptive strategy to choose whether to
	// offload communication or not"): Isend only defers the submission
	// when at least one core is idle to pick it up; with every core busy
	// it submits inline, since deferral would only postpone the work to
	// the wait. Only meaningful in Multithreaded mode with OffloadEager.
	AdaptiveOffload bool
	// Strategy picks the eager optimizer: "aggreg" (default: a run of
	// ready eager sends to one destination leaves as one aggregated
	// frame up to the rail MTU, a lone one as a plain eager frame) or
	// "fifo" (one frame per send, the ablation's reference). It has no
	// say in striping, which follows the rails' stripe weights.
	Strategy string
	// maxPendingRdvPerPeer caps how many rendezvous sends to one
	// destination may sit in the unacked replay window (RTS posted or
	// data in flight) at once. The self-healing sublayer retains every
	// unacked request — and its application buffer — until the
	// receiver's DATA-ack, so without a cap a sender bursting bulk
	// messages at a slow or dying peer accumulates replay state without
	// bound. Excess sends keep their sequence number and park in a
	// per-peer FIFO with no RTS on the wire; each DATA-ack admits the
	// next parked send. Isend never blocks. Zero selects
	// defaultMaxPendingRdv; unexported because no caller outside this
	// package's tests ever needed another value.
	maxPendingRdvPerPeer int
	// Trace, if non-nil, records engine events.
	Trace *trace.Recorder
	// Metrics, if non-nil, registers the engine's counters, latency
	// histograms, and every rail driver's counters with the registry
	// under "node<rank>.*" names (docs/OBSERVABILITY.md catalogs them),
	// including one "node<rank>.peer.<k>.*" family per rank of the world.
	// Leaving it nil keeps the engine exactly as unmetered as before:
	// recording sites guard on one nil check.
	Metrics *telemetry.Registry
	// PeerDeadline bounds how long the engine keeps replaying toward a
	// silent peer before declaring the rank dead. With it set, every
	// inbound frame stamps the sender's last-heard clock, and a
	// rendezvous send whose replay timer finds the peer silent — nothing
	// heard on any rail since max(last frame, the request's posting) for
	// longer than the deadline — triggers MarkPeerDead: every pending
	// request targeting the rank completes with ErrPeerDead and new
	// posts to it fail fast. Zero (the default) disables engine-local
	// detection; requests to a crashed peer then replay forever unless a
	// cluster layer calls MarkPeerDead (docs/CLUSTER.md).
	PeerDeadline time.Duration
}

// Stats counts engine activity.
type Stats struct {
	SendsPosted    uint64
	RecvsPosted    uint64
	EagerSubmits   uint64
	OffloadSubmits uint64 // submissions executed off the posting thread
	RdvStarted     uint64
	Unexpected     uint64
	Aggregated     uint64
	ProgressPasses uint64
	// Self-healing counters (docs/FABRIC.md "Self-healing rendezvous"):
	// RdvReplays counts unacked rendezvous spans (or their RTS) re-posted
	// by the resend timer; RdvAcked counts rendezvous sends completed by
	// a receiver DATA-ack; RdvParked counts rendezvous sends that hit the
	// per-peer unacked window cap and waited for an ack before their RTS
	// went out; RailReadmits counts probation rails returned to the
	// stripe set by a successful health probe.
	RdvReplays   uint64
	RdvAcked     uint64
	RdvParked    uint64
	RailReadmits uint64
	// Peer-death counters (docs/CLUSTER.md): PeerDead counts ranks this
	// engine declared dead (deadline detection or MarkPeerDead);
	// ReqsFailed counts requests completed with ErrPeerDead — pending
	// ones failed by the death sweep plus new posts refused fast.
	PeerDead   uint64
	ReqsFailed uint64
	// FramesDropped counts inbound frames discarded unprocessed, for
	// any of the reasons the dropReason type lists (progress.go); a
	// consumed sequence number counts per train entry. With a trace
	// attached, each drop records its reason as a "drop" event.
	FramesDropped uint64
}

// Engine is one node's communication engine.
//
// State lives in two places. Everything the engine knows about one rank
// — both stream counters, the unacked rendezvous window, in-flight
// receptions, the done-ring, the session id, liveness — is that rank's
// peer struct (peer.go), held in a slice sized once from the world; the
// posted and unexpected lists stay engine-wide because an AnySource
// receive matches across every rank.
//
// Lock order, for the four spinlocks below:
//
//	biglock → pollLock → submitLock → qlock
//
// biglock (Sequential mode only) wraps whole library calls and is the
// outermost. pollLock and submitLock are only ever TryLocked — a
// contending core moves on instead of waiting — so they cannot deadlock
// whatever the nesting. qlock is the one blocking leaf: it is never held
// while acquiring another lock, and nothing that can block or run long
// (a rail send, a payload copy, a request completion, which wakes
// threads) happens under it. The longest qlock hold on the eager path is
// matchTrain's, taken under pollLock: it matches up to trainHold entries
// of one aggregated train, each a sequence check and a posted-list scan,
// and defers their copies and completions past the unlock. Two jobs that
// need no lock are one atomic word each: the blocking watcher hands its
// packet over through the woken slot, and the maintenance scan is
// claimed by CASing nextMaint. The atomics read without any lock are
// named where they are declared.
type Engine struct {
	node  int
	cfg   Config
	sch   *sched.Scheduler
	srv   *piom.Server
	rails []*nic.Driver
	// aggregate is Config.Strategy, resolved once by parseStrategy:
	// whether a submission train takes the same-destination run at the
	// send queue's head. stripe is set when at least two rails declare a
	// positive stripe weight at construction: rendezvous payloads of
	// stripeMin bytes or more then split across the weighted rails.
	aggregate, stripe bool
	// goroutineFed is set when a goroutine of any rail's endpoint also
	// moves its arrivals (nic.Driver.GoroutineFed): a Wait loop then
	// follows every unworked pass with runtime.Gosched, because the
	// goroutine that would deliver the awaited frame may need this very
	// processor. Fixed at construction.
	goroutineFed bool
	// selfRail carries self traffic: the first rail named "shm", else
	// the default rail. Fixed at construction.
	selfRail *nic.Driver

	// qlock protects the matching lists, the send queue and every peer's
	// protocol state. Critical sections are short (list
	// manipulation only); long operations (copies, submissions) run
	// outside it.
	qlock      sync2.SpinLock
	sendq      sendQueue
	posted     postedQueue
	unexpected []*arrival
	// sendqReady mirrors "sendq is not empty" for the submission path's
	// unlocked gate: the push that fills the queue sets it and the take
	// that empties it clears it, both under qlock, so an empty progress
	// pass skips submitLock and qlock. A push that races the gate is
	// picked up by the next pass, which its post's kick or wait runs.
	sendqReady atomic.Bool
	// sendFree and recvFree are the engine's local request stacks,
	// guarded by qlock; sendBack and recvBack are the lock-free lists
	// Release returns requests to (request.go, "Request freelists").
	sendFree []*SendReq
	recvFree []*RecvReq
	sendBack atomic.Pointer[SendReq]
	recvBack atomic.Pointer[RecvReq]
	// nSends and nRecvs count posts; guarded by qlock, which every post
	// holds anyway.
	nSends, nRecvs uint64
	// peers is indexed by rank and never resized, so &e.peers[r] is
	// stable and the per-message path indexes instead of hashing.
	peers []peer
	// session identifies this engine incarnation; every RTS carries it so
	// a receiver can tell a restarted sender's fresh stream from a replay
	// of the old one (peer.session is the last one seen per rank).
	session uint64

	// Event processing uses per-activity locks rather than one big engine
	// mutex (§2.1: "instead of locking the whole communication processing
	// with a mutex, it is possible to protect the processing of events
	// separately ... several threads can perform different operations at
	// the same time"): one core may drain arrivals while another performs
	// a submission.
	pollLock   sync2.SpinLock
	submitLock sync2.SpinLock

	// pollBuf is the engine's reusable receive batch: every progress pass
	// drains each rail through it with PollBatch, so a storm of small
	// packets costs one pollLock acquisition and one endpoint visit per
	// batch instead of per frame. Guarded by pollLock; sized once at
	// construction and never grown, which keeps the batched drain off the
	// allocator entirely.
	pollBuf []*wire.Packet
	// matchBuf is matchTrain's reusable list of the train entries one
	// qlock hold matched. Guarded by pollLock, like every train walk.
	matchBuf []trainMatch

	// woken hands the packet BlockingWait's watcher woke on to the
	// batched delivery path: the watcher never blocks on pollLock (a
	// concurrent poller would stall it for a whole drain otherwise) — it
	// CASes the packet into this empty slot and lets whichever pass next
	// wins pollLock swap it out and deliver it. One slot suffices: the
	// watcher only parks on the default rail, piom starts one watcher per
	// source, and BlockingWait refuses to park while the slot is full.
	woken atomic.Pointer[wire.Packet]

	// trainBuf is the reusable slice dequeueReady builds submission
	// trains in; every user holds submitLock, so one buffer serves the
	// engine and steady-state submission stays allocation-free.
	trainBuf []*SendReq
	// encodeTrain is encodeTrainBuf bound to the engine, made once so a
	// train's submission passes the rail its encoder without allocating.
	encodeTrain func(out []byte)

	// biglock is the Sequential baseline's library-wide mutex: classical
	// thread-safe engines serialize every library call behind one lock
	// (§2: thread safety "except through a library-wide scope mutex"),
	// so concurrent threads of one node contend on it. Unused in
	// Multithreaded mode.
	biglock sync2.SpinLock

	// health tracks per-rail lifecycle state, indexed parallel to rails.
	// The slice is sized once at construction and its elements are only
	// ever addressed in place (they embed atomics).
	health []railHealth
	// probationCount mirrors how many rails are on probation, so hot
	// paths (dataRails, the maintenance gate) learn "all rails active"
	// from one atomic load instead of a scan.
	probationCount atomic.Int32
	// pendingRdv counts rendezvous sends the replay timer still owns
	// (posted but not yet DATA-acked); the maintenance gate skips the
	// timer scan entirely while it is zero.
	pendingRdv atomic.Int64
	// nextMaint is the unix-nanos time before which maybeMaint does
	// nothing. A scan is claimed by CASing it to maintRunning, so exactly
	// one core runs each maintenance scan and none starts another until
	// the winner stores the next due time; maintBuf and maintDone are the
	// scan's reusable work lists, owned by the CAS winner.
	nextMaint atomic.Int64
	maintBuf  []*SendReq
	maintDone []*SendReq

	// deadCount mirrors how many peers carry the dead flag, so the
	// posting hot path learns "everyone alive" from one atomic load.
	deadCount atomic.Int32

	msgID atomic.Uint64

	nEager     atomic.Uint64
	nOffload   atomic.Uint64
	nRdv       atomic.Uint64
	nUnexp     atomic.Uint64
	nAggr      atomic.Uint64
	nProgress  atomic.Uint64
	nReplays   atomic.Uint64
	nAcks      atomic.Uint64
	nRdvParked atomic.Uint64
	nReadmits  atomic.Uint64
	nPeerDead  atomic.Uint64
	nReqFailed atomic.Uint64
	nDropped   atomic.Uint64

	// tel holds the registered metric handles when Config.Metrics was
	// set; nil otherwise. Hot paths guard on this one pointer.
	tel *engineTelemetry
}

// New creates an engine for node on the given rails. rails[0] is the
// default inter-node rail; a rail whose driver reports Name()=="shm" is
// used for intra-node (self) traffic. The world size — how many peers
// the engine tracks — is the largest Nodes() any rail's endpoint
// reports. The engine registers itself as a progress source on srv.
func New(node int, sch *sched.Scheduler, srv *piom.Server, rails []*nic.Driver, cfg Config) *Engine {
	if len(rails) == 0 {
		panic("core: engine needs at least one rail")
	}
	world := 0
	for _, r := range rails {
		if r.Self() != node {
			panic(fmt.Sprintf("core: rail %s endpoint %d does not match node %d", r.Name(), r.Self(), node))
		}
		world = max(world, r.Endpoint().Nodes())
	}
	if len(rails) > maxRails {
		panic(fmt.Sprintf("core: %d rails, at most %d", len(rails), maxRails))
	}
	if cfg.maxPendingRdvPerPeer <= 0 {
		cfg.maxPendingRdvPerPeer = defaultMaxPendingRdv
	}
	e := &Engine{
		node:    node,
		cfg:     cfg,
		sch:     sch,
		srv:     srv,
		rails:   rails,
		peers:   make([]peer, world),
		session: newSessionID(),
		health:  make([]railHealth, len(rails)),
		pollBuf: make([]*wire.Packet, pollBatchSize),
	}
	e.encodeTrain = e.encodeTrainBuf
	for i := range e.health {
		e.health[i].probeGap.Store(int64(probeGapInit))
	}
	if cfg.PeerDeadline > 0 {
		// A peer never heard from counts as silent since construction,
		// not since the epoch — a world that dies during rendezvous
		// setup still gets a full deadline before the verdict.
		now := time.Now().UnixNano()
		for i := range e.peers {
			e.peers[i].lastHeard.Store(now)
		}
	}
	weighted := 0
	e.selfRail = rails[0]
	for _, r := range rails {
		if r.Name() == "shm" {
			e.selfRail = r
			break
		}
	}
	for _, r := range rails {
		e.goroutineFed = e.goroutineFed || r.GoroutineFed()
		if r.StripeWeight() > 0 {
			weighted++
		}
	}
	e.aggregate, e.stripe = parseStrategy(cfg.Strategy), weighted >= 2
	if cfg.Metrics != nil {
		e.tel = newEngineTelemetry(cfg.Metrics, e)
		e.registerRails(cfg.Metrics)
	}
	if srv != nil {
		srv.Register(e)
	}
	return e
}

// tracing reports whether an event recorder is attached. Hot paths
// check it before building Recordf arguments: with tracing off the
// varargs boxing would be the only allocation left on the
// steady-state path.
func (e *Engine) tracing() bool { return e.cfg.Trace != nil }

// Node returns the engine's node id.
func (e *Engine) Node() int { return e.node }

// Mode returns the configured mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Scheduler returns the node's scheduler.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sch }

// defaultRail returns the inter-node rail.
func (e *Engine) defaultRail() *nic.Driver { return e.rails[0] }

// Rails exposes the engine's rail drivers in registration order
// (rails[0] is the default inter-node rail). Callers must treat the
// slice as read-only; it exists so launchers and benchmarks can inspect
// per-rail stats and set striping weights (Driver.SetStripeWeight)
// without the engine re-exporting every driver knob. The engine itself
// never changes a rail's weight.
func (e *Engine) Rails() []*nic.Driver { return e.rails }

// railFor picks the rail for traffic to dst: self traffic prefers a
// shared-memory rail when one is configured (selfRail).
func (e *Engine) railFor(dst int) *nic.Driver {
	if dst == e.node {
		return e.selfRail
	}
	return e.rails[0]
}

// Close shuts the engine's rail transports down. In-flight requests are
// not completed; callers quiesce application traffic first (the MPI
// layer's World.Close runs after every spawned thread joined). Sends
// after Close are dropped and counted by the drivers.
//
// Rails close in reverse registration order: secondary (bonded) rails
// first, the default rail last. The default rail carries the protocols'
// control traffic — the closer's final ack completes the peer's last
// request — so its Close drain must be the last thing holding the door.
func (e *Engine) Close() {
	for i := len(e.rails) - 1; i >= 0; i-- {
		e.rails[i].Close()
	}
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	sends, recvs := e.postCounts()
	return Stats{
		SendsPosted:    sends,
		RecvsPosted:    recvs,
		EagerSubmits:   e.nEager.Load(),
		OffloadSubmits: e.nOffload.Load(),
		RdvStarted:     e.nRdv.Load(),
		Unexpected:     e.nUnexp.Load(),
		Aggregated:     e.nAggr.Load(),
		ProgressPasses: e.nProgress.Load(),
		RdvReplays:     e.nReplays.Load(),
		RdvAcked:       e.nAcks.Load(),
		RdvParked:      e.nRdvParked.Load(),
		RailReadmits:   e.nReadmits.Load(),
		PeerDead:       e.nPeerDead.Load(),
		ReqsFailed:     e.nReqFailed.Load(),
		FramesDropped:  e.nDropped.Load(),
	}
}

// postCounts reads the posted-request counters under qlock.
func (e *Engine) postCounts() (sends, recvs uint64) {
	e.qlock.Lock()
	defer e.qlock.Unlock()
	return e.nSends, e.nRecvs
}
