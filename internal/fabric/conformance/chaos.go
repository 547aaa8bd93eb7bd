package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/mpi"
	"pioman/internal/wire"
)

// ChaosConfig selects the disorder a Chaos wrapper injects into the
// frames its endpoints accept. Every probabilistic decision is drawn
// from one rand.Source per endpoint, derived from Seed and the rank, so
// a failing run is replayable bit-for-bit by re-running with the logged
// seed — provided the send schedule itself is deterministic (a single
// sending goroutine, or a workload whose per-endpoint send order does
// not race).
//
// Chaos operates at the frame level, above the wrapped backend, so the
// injected failures are visible to whatever consumes the fabric
// directly. Wrapping an engine world therefore only tolerates the
// knobs the engine contract survives: Reorder and Latency (receivers
// reorder by sequence number; delay is just a slow wire) and
// Duplicate (the engine drops a second copy of a frame: an eager
// frame's consumed sequence number is a counted drop, and rendezvous
// frames are idempotent). Drop breaks the reliable-delivery contract
// the engine assumes (a transfer hangs) and Corrupt hands the consumer
// a mutated payload — those two are for raw-endpoint tests, for rails
// striping's failover is expected to abandon, and for transports with
// their own reliability sublayer tested below the frame level (see
// udpfab.ChaosParams).
type ChaosConfig struct {
	// Seed drives every endpoint's random source.
	Seed int64
	// Drop is the probability a frame is silently discarded after Send
	// accepts it. Drops count into LostFrames — the asynchronous-loss
	// shape (accepted, then gone) the failover strategy watches.
	Drop float64
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Corrupt is the probability one payload bit is flipped in transit.
	// Frames with empty payloads pass through unmutated.
	Corrupt float64
	// Reorder is the probability a frame is held back by ReorderDelay,
	// letting frames sent after it overtake it.
	Reorder float64
	// ReorderDelay is the hold applied to reordered frames (default
	// 2ms).
	ReorderDelay time.Duration
	// Latency is added delay applied to every delivered frame.
	Latency time.Duration
	// KillAfter, when positive, kills the endpoint after it has accepted
	// that many frames: every later frame is silently discarded, exactly
	// like a stream that dies *between* span submission and delivery —
	// the today-hangs window the engine's acked-replay protocol exists
	// for. Unlike Drop, the kill is deterministic (no random draw), so
	// the scenario replays without a seed.
	KillAfter int
	// KillDuration revives a killed endpoint after that long (measured
	// from its first discarded frame); zero keeps it dead forever. A
	// revived endpoint delivers again — the rail-recovery half of the
	// probation/re-admission lifecycle.
	KillDuration time.Duration
	// KillLossDelay postpones counting a kill-discarded frame into
	// LostFrames. With a delay longer than a span submission, the
	// sender's synchronous counters-quiet check passes and the loss
	// surfaces only asynchronously — the shape that defeats submission-
	// time failover and leaves only end-to-end acknowledgment. Zero
	// counts immediately.
	KillLossDelay time.Duration
	// KillRanks restricts the kill to the listed ranks' endpoints; nil
	// kills every endpoint (each on its own accepted-frame count).
	KillRanks []int
	// RecordTrace keeps a per-endpoint log of every Send decision,
	// retrievable with Trace — the pin for seeded-determinism tests.
	RecordTrace bool
}

// Chaos wraps a fabric so its endpoints inject seeded, replayable
// disorder — drops, duplicates, bit corruption, reordering, latency —
// into every frame they accept. ChaosConfig{Drop: 1} is the
// drop-everything harness of the rail-failure case. Reception is
// untouched — PollBatch and BlockingRecv are the inner endpoint's own —
// so a wrapped rail drains exactly the way the engine drains a bare one.
type Chaos struct {
	inner fabric.Fabric
	cfg   ChaosConfig

	mu  sync.Mutex
	eps map[int]*chaosEndpoint
}

// NewChaos wraps inner with the given fault model.
func NewChaos(inner fabric.Fabric, cfg ChaosConfig) *Chaos {
	return &Chaos{inner: inner, cfg: cfg, eps: make(map[int]*chaosEndpoint)}
}

// Nodes implements fabric.Fabric.
func (c *Chaos) Nodes() int { return c.inner.Nodes() }

// Close implements fabric.Fabric.
func (c *Chaos) Close() error { return c.inner.Close() }

// Endpoint implements fabric.Fabric, handing out one stable wrapper per
// rank so loss counts and decision traces accumulate per endpoint as on
// a real transport.
func (c *Chaos) Endpoint(rank int) (fabric.Endpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ep := c.eps[rank]; ep != nil {
		return ep, nil
	}
	inner, err := c.inner.Endpoint(rank)
	if err != nil {
		return nil, err
	}
	captures := false
	if sc, ok := inner.(fabric.SendCapturer); ok {
		captures = sc.SendCaptures()
	}
	killable := c.cfg.KillAfter > 0 && len(c.cfg.KillRanks) == 0
	for _, r := range c.cfg.KillRanks {
		if r == rank {
			killable = c.cfg.KillAfter > 0
		}
	}
	ep := &chaosEndpoint{
		Endpoint:      inner,
		cfg:           &c.cfg,
		innerCaptures: captures,
		killable:      killable,
		rng:           rand.New(rand.NewSource(c.cfg.Seed + int64(rank)*1_000_003)),
	}
	c.eps[rank] = ep
	return ep, nil
}

// Trace returns a copy of rank's recorded Send decisions, in Send
// order. Empty unless RecordTrace was set (or the rank never sent).
func (c *Chaos) Trace(rank int) []string {
	c.mu.Lock()
	ep := c.eps[rank]
	c.mu.Unlock()
	if ep == nil {
		return nil
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	out := make([]string, len(ep.trace))
	copy(out, ep.trace)
	return out
}

// InKillWindow reports whether rank's endpoint is currently discarding
// every frame it accepts: killed (KillAfter reached) and not yet revived
// (KillDuration not elapsed). While it holds, no frame the rank sends —
// a health probe included — can reach a peer.
func (c *Chaos) InKillWindow(rank int) bool {
	c.mu.Lock()
	ep := c.eps[rank]
	c.mu.Unlock()
	return ep != nil && ep.inKillWindow()
}

// chaosEndpoint decorates Send with the fault model; everything else is
// the inner endpoint's.
type chaosEndpoint struct {
	fabric.Endpoint
	cfg           *ChaosConfig
	innerCaptures bool
	killable      bool

	mu    sync.Mutex
	rng   *rand.Rand
	trace []string

	lost atomic.Uint64
	// Kill lifecycle: accepted counts frames toward KillAfter; killedAt
	// stamps (unix nanos) when the first frame was discarded, which
	// starts the KillDuration revival clock.
	accepted atomic.Uint64
	killedAt atomic.Int64
}

// dead reports whether this frame lands in the kill window: past the
// accepted-frame budget and, when KillDuration is set, before the
// revival deadline.
func (ce *chaosEndpoint) dead() bool {
	if !ce.killable || ce.accepted.Add(1) <= uint64(ce.cfg.KillAfter) {
		return false
	}
	if ce.killedAt.Load() == 0 {
		ce.killedAt.CompareAndSwap(0, time.Now().UnixNano())
	}
	return ce.inKillWindow()
}

// inKillWindow reports whether the endpoint has been killed and not yet
// revived; it reads the kill lifecycle without advancing it.
func (ce *chaosEndpoint) inKillWindow() bool {
	kt := ce.killedAt.Load()
	d := ce.cfg.KillDuration
	return kt != 0 && (d <= 0 || time.Now().UnixNano() < kt+int64(d))
}

// Send implements fabric.Endpoint: the fault model decides the frame's
// fate with draws from the endpoint's seeded source, then a private
// copy of the packet is delivered (or not) on the decided schedule.
// The caller's packet is never retained, so SendCaptures is true
// regardless of the wrapped backend.
func (ce *chaosEndpoint) Send(p *wire.Packet) error {
	cfg := ce.cfg
	if ce.dead() {
		// The endpoint is in its kill window: the frame vanishes, and the
		// loss surfaces in LostFrames only after KillLossDelay — invisible
		// to a sender checking counters right after submission.
		if d := cfg.KillLossDelay; d > 0 {
			time.AfterFunc(d, func() { ce.lost.Add(1) })
		} else {
			ce.lost.Add(1)
		}
		return nil
	}
	ce.mu.Lock()
	drop := cfg.Drop > 0 && ce.rng.Float64() < cfg.Drop
	dup := cfg.Duplicate > 0 && ce.rng.Float64() < cfg.Duplicate
	corrupt := cfg.Corrupt > 0 && len(p.Payload) > 0 && ce.rng.Float64() < cfg.Corrupt
	reorder := cfg.Reorder > 0 && ce.rng.Float64() < cfg.Reorder
	flip := 0
	if corrupt {
		flip = ce.rng.Intn(len(p.Payload) * 8)
	}
	if cfg.RecordTrace {
		ce.trace = append(ce.trace, fmt.Sprintf(
			"dst=%d seq=%d len=%d drop=%t dup=%t corrupt=%t reorder=%t",
			p.Dst, p.Seq, len(p.Payload), drop, dup, corrupt, reorder))
	}
	ce.mu.Unlock()

	if drop {
		ce.lost.Add(1)
		return nil
	}
	delay := cfg.Latency
	if reorder {
		rd := cfg.ReorderDelay
		if rd <= 0 {
			rd = 2 * time.Millisecond
		}
		delay += rd
	}
	ce.forward(p, delay, corrupt, flip)
	if dup {
		ce.forward(p, delay, false, 0)
	}
	return nil
}

// forward delivers a private copy of p after delay, flipping one
// payload bit when corrupt. A deferred delivery that fails (the world
// closed underneath the timer) is a late loss and is counted as one.
func (ce *chaosEndpoint) forward(p *wire.Packet, delay time.Duration, corrupt bool, flip int) {
	q := fabric.CapturePacket(p)
	if corrupt {
		q.Payload[flip/8] ^= 1 << (flip % 8)
	}
	if delay <= 0 {
		if err := ce.deliver(q); err != nil {
			ce.lost.Add(1)
		}
		return
	}
	time.AfterFunc(delay, func() {
		if err := ce.deliver(q); err != nil {
			ce.lost.Add(1)
		}
	})
}

// deliver hands a copy the wrapper owns to the inner endpoint,
// recycling it when the inner Send captures.
func (ce *chaosEndpoint) deliver(q *wire.Packet) error {
	err := ce.Endpoint.Send(q)
	if err == nil && ce.innerCaptures {
		fabric.ReleasePacket(q)
		return nil
	}
	return err
}

// SendCaptures implements fabric.SendCapturer: Send fully consumes the
// packet (by copying or dropping it), so callers may recycle it
// immediately.
func (ce *chaosEndpoint) SendCaptures() bool { return true }

// MaxPayload implements fabric.PayloadLimiter: the fault model must not
// hide the wrapped transport's frame ceiling, or the engine would submit
// frames the inner endpoint refuses (udpfab's one-datagram limit). An
// inner endpoint declaring no limit gets the codec's universal ceiling.
func (ce *chaosEndpoint) MaxPayload() int {
	if lim, ok := ce.Endpoint.(fabric.PayloadLimiter); ok {
		return lim.MaxPayload()
	}
	return fabric.MaxPayloadBytes
}

// Backlog implements fabric.Backlogger by forwarding: the fault model
// must not hide a wrapped simulator's link horizon, or the optimizer's
// feed-on-idle gate would stay open under chaos. Inner endpoints without
// the capability report an idle path, as they did to the driver directly.
func (ce *chaosEndpoint) Backlog(dst int) time.Duration {
	if b, ok := ce.Endpoint.(fabric.Backlogger); ok {
		return b.Backlog(dst)
	}
	return 0
}

// GoroutineFed implements fabric.GoroutineFed by forwarding: PollBatch
// is the inner endpoint's own, so whatever feeds it still needs the
// waiter's processor under chaos.
func (ce *chaosEndpoint) GoroutineFed() bool {
	g, ok := ce.Endpoint.(fabric.GoroutineFed)
	return ok && g.GoroutineFed()
}

// LostFrames implements fabric.LossCounter: frames dropped by the fault
// model plus deferred deliveries that failed late.
func (ce *chaosEndpoint) LostFrames() uint64 { return ce.lost.Load() }

// ChaosSeed returns the seed a chaos run should use: the value of
// PIOMAN_CHAOS_SEED when set (the replay workflow), otherwise the
// current nanosecond clock. Either way the seed is logged, so every
// failure report carries what is needed to reproduce it.
func ChaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("PIOMAN_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PIOMAN_CHAOS_SEED %q: %v", s, err)
		}
		t.Logf("chaos seed %d (from PIOMAN_CHAOS_SEED)", v)
		return v
	}
	v := time.Now().UnixNano()
	t.Logf("chaos seed %d (set PIOMAN_CHAOS_SEED=%d to replay)", v, v)
	return v
}

// RunChaosSoak runs the disorder-soak case against worlds from open: a
// windowed storm of eager messages plus concurrent rendezvous transfers
// in both directions at once, asserting every message arrives exactly
// once and intact. The open callback decides what disorder the world
// runs under — reliable backends wrap their fabric in a Chaos with
// Reorder and Latency (the contract-preserving knobs), udpfab builds
// its loopback fabric over datagram-level drop/duplicate/corrupt
// injection its reliability sublayer must absorb. The workload itself
// is deliberately identical across backends so a soak failure isolates
// the backend, not the traffic shape.
func RunChaosSoak(t *testing.T, open OpenWorld) {
	t.Run("ChaosSoak", func(t *testing.T) {
		w := open(t)
		defer closeWorld(t, w)
		const (
			eagerMsgs = 160
			rdvMsgs   = 4
			eagerSize = 512
			rdvSize   = 160 << 10
		)
		w.RunAll(func(p *mpi.Proc) {
			peer := 1 - p.Rank()
			// Both ranks fire their full schedule before waiting on
			// anything, so eager frames, RTS/CTS handshakes and striped
			// rendezvous data all cross the disordered wire at once.
			sends := make([]*core.SendReq, 0, eagerMsgs+rdvMsgs)
			for i := 0; i < eagerMsgs; i++ {
				sends = append(sends, p.Isend(peer, 1000+i, patternedAt(eagerSize+i%9, byte(i))))
			}
			for i := 0; i < rdvMsgs; i++ {
				sends = append(sends, p.Isend(peer, 5000+i, patternedAt(rdvSize+i, byte(0x80+i))))
			}
			recvs := make([]*core.RecvReq, 0, eagerMsgs+rdvMsgs)
			bufs := make([][]byte, 0, eagerMsgs+rdvMsgs)
			for i := 0; i < eagerMsgs; i++ {
				buf := make([]byte, eagerSize+i%9)
				bufs = append(bufs, buf)
				recvs = append(recvs, p.Irecv(peer, 1000+i, buf))
			}
			for i := 0; i < rdvMsgs; i++ {
				buf := make([]byte, rdvSize+i)
				bufs = append(bufs, buf)
				recvs = append(recvs, p.Irecv(peer, 5000+i, buf))
			}
			for _, r := range sends {
				p.WaitSend(r)
			}
			for i, r := range recvs {
				p.WaitRecv(r)
				var want []byte
				if i < eagerMsgs {
					want = patternedAt(eagerSize+i%9, byte(i))
				} else {
					want = patternedAt(rdvSize+(i-eagerMsgs), byte(0x80+(i-eagerMsgs)))
				}
				if !bytes.Equal(bufs[i], want) {
					t.Errorf("rank %d message %d arrived corrupted under chaos", p.Rank(), i)
				}
			}
		})
	})
}
