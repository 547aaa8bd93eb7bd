package mpi_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/conformance"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/simfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/piom"
	"pioman/internal/topo"
	"pioman/internal/wire"
)

// The matching checker: a seeded generator writes one global plan of
// Isend/Irecv programs for a three-rank world, every rank runs its
// program, and one check runs over the joint outcome — every send
// matched exactly once with its envelope, non-overtaking between each
// sender and receiver, payloads intact, and no receive left pending
// while a send it matches is unmatched. The plan covers every engine
// path a message can take: eager frames, aggregated trains, the
// sender's stash (under reordering), the unexpected pool, rendezvous,
// striped rendezvous and, under duplication, the replay drops.

const (
	matchRanks  = 3
	matchEpochs = 4
	// matchTimeout bounds one run; a healthy one takes milliseconds.
	matchTimeout = 20 * time.Second
)

// The three size pools straddle every size boundary of the engine: empty and
// sub-word payloads, two entries that exactly fill a 32 KiB MX train and
// two that do not, the eager maximum (32 KiB, also the MX MTU) and one
// byte past it, the 64 KiB TCP rail MTU, and stripeMin (128 KiB).
var (
	matchSmall = []int{0, 1, 7, 8, 64, 1000, 4 << 10}
	matchMid   = []int{16<<10 - 24, 16<<10 - 23, 32<<10 - 1, 32 << 10}
	matchLarge = []int{32<<10 + 1, 64 << 10, 64<<10 + 1, 128<<10 - 1, 128 << 10, 128<<10 + 1}
)

// pairStyle is how a receiver posts the receives for one sender's
// messages in one epoch. Within an epoch each (sender, receiver) pair
// has one style, and each style draws its tags where no other style's
// receive can reach them, so every receive completes under any legal
// matching:
//   - specific: (src, tag), tags epoch*100 + 0..2;
//   - anyTag: (src, AnyTag), tags as specific — a pair's whole epoch is
//     this style, and its later epochs' messages queue behind it in the
//     sender's stream;
//   - anySource: (AnySource, tag), tags epoch*100 + 50..51, used by no
//     other style;
//   - anyBoth: (AnySource, AnyTag), only in the last epoch and then for
//     every sender of that receiver.
type pairStyle int

const (
	specific pairStyle = iota
	anyTag
	anySource
	anyBoth
)

type matchMsg struct {
	src, dst, tag, size int
	order               int // position among its sender's sends
}

type matchRecv struct {
	rank, src, tag, bufLen int
	order                  int // position among its rank's receives
	late                   bool
}

// matchOp is one step of a rank's program: an Isend of msgs[idx], or an
// Irecv of recvs[idx] (a late one first waits until a matching message
// is pending).
type matchOp struct {
	send bool
	idx  int
}

type matchPlan struct {
	msgs  []matchMsg
	recvs []matchRecv
	// progs[rank][epoch] is the rank's program for that epoch; the rank
	// waits for all of an epoch's requests before starting the next.
	progs [matchRanks][matchEpochs][]matchOp
}

// matchFill writes message id's payload: its first four bytes spell the id,
// so any payload of four bytes or more names its send.
func matchFill(b []byte, id int) []byte {
	for i := range b {
		b[i] = byte(id>>(8*(i&3))) ^ byte(i*7)
	}
	return b
}

// envelopeMatches reports whether a receive posted as (src, tag) may
// take message m.
func envelopeMatches(src, tag int, m *matchMsg) bool {
	return (src == core.AnySource || src == m.src) && (tag == core.AnyTag || tag == m.tag)
}

// envelope prints a receive's (source, tag), wildcards by name.
func envelope(src, tag int) string {
	s, g := strconv.Itoa(src), strconv.Itoa(tag)
	if src == core.AnySource {
		s = "any"
	}
	if tag == core.AnyTag {
		g = "any"
	}
	return "(src " + s + ", tag " + g + ")"
}

// genMatchPlan derives every rank's program from one seeded global plan.
func genMatchPlan(seed int64) *matchPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &matchPlan{}
	var sends, posts [matchRanks]int
	for ep := 0; ep < matchEpochs; ep++ {
		first := len(p.recvs)
		var early, late [matchRanks][]matchOp
		var sent [matchRanks][]matchOp
		for dst := 0; dst < matchRanks; dst++ {
			wild := ep == matchEpochs-1 && rng.Intn(3) == 0
			for src := 0; src < matchRanks; src++ {
				if src == dst {
					continue
				}
				style := pairStyle(rng.Intn(3))
				if wild {
					style = anyBoth
				}
				for n := rng.Intn(5); n > 0; n-- {
					m := matchMsg{src: src, dst: dst, tag: ep*100 + rng.Intn(3), size: pickSize(rng)}
					r := matchRecv{rank: dst, src: src, tag: m.tag, late: rng.Intn(3) == 0}
					switch style {
					case anyTag:
						r.tag = core.AnyTag
					case anySource:
						m.tag = ep*100 + 50 + rng.Intn(2)
						r.src, r.tag = core.AnySource, m.tag
					case anyBoth:
						r.src, r.tag = core.AnySource, core.AnyTag
					}
					sent[src] = append(sent[src], matchOp{send: true, idx: len(p.msgs)})
					p.msgs = append(p.msgs, m)
					op := matchOp{idx: len(p.recvs)}
					if r.late {
						late[dst] = append(late[dst], op)
					} else {
						early[dst] = append(early[dst], op)
					}
					p.recvs = append(p.recvs, r)
				}
			}
		}
		// A receive's buffer fits the largest message it could match.
		for i := first; i < len(p.recvs); i++ {
			r := &p.recvs[i]
			for j := range p.msgs {
				if m := &p.msgs[j]; m.dst == r.rank && m.tag/100 == ep && envelopeMatches(r.src, r.tag, m) {
					r.bufLen = max(r.bufLen, m.size)
				}
			}
		}
		// Sends and early receives interleave at random; late receives
		// follow every send of the epoch, so a rank blocks in a probe only
		// once all its own messages are out and no probe waits in a cycle.
		for rank := 0; rank < matchRanks; rank++ {
			prog := append(sent[rank], early[rank]...)
			rng.Shuffle(len(prog), func(i, j int) { prog[i], prog[j] = prog[j], prog[i] })
			lt := late[rank]
			rng.Shuffle(len(lt), func(i, j int) { lt[i], lt[j] = lt[j], lt[i] })
			prog = append(prog, lt...)
			for _, op := range prog {
				if op.send {
					p.msgs[op.idx].order = sends[rank]
					sends[rank]++
				} else {
					p.recvs[op.idx].order = posts[rank]
					posts[rank]++
				}
			}
			p.progs[rank][ep] = prog
		}
	}
	return p
}

// pickSize draws mostly small sizes, so sends to one peer queue up into
// aggregated trains, and enough large ones to exercise rendezvous.
func pickSize(rng *rand.Rand) int {
	switch x := rng.Intn(20); {
	case x < 12:
		return matchSmall[rng.Intn(len(matchSmall))]
	case x < 17:
		return matchMid[rng.Intn(len(matchMid))]
	default:
		return matchLarge[rng.Intn(len(matchLarge))]
	}
}

// recvOutcome is what one receive reported at the end of a run.
type recvOutcome struct {
	posted, done bool
	err          error
	n, from, tag int
	truncated    bool
	buf          []byte
}

type sendOutcome struct {
	posted, done bool
	err          error
}

// runMatchPlan runs every rank's program on w and records every
// completion. A rank that passes the run's deadline stops where it is;
// the checker reports what is pending.
func runMatchPlan(w *mpi.World, p *matchPlan) ([]recvOutcome, []sendOutcome) {
	sreqs := make([]*core.SendReq, len(p.msgs))
	rreqs := make([]*core.RecvReq, len(p.recvs))
	bufs := make([][]byte, len(p.recvs))
	deadline := time.Now().Add(matchTimeout)
	w.RunAll(func(proc *mpi.Proc) {
		rank := proc.Rank()
		for ep := 0; ep < matchEpochs; ep++ {
			var reqs []*piom.Request
			for _, op := range p.progs[rank][ep] {
				if op.send {
					m := &p.msgs[op.idx]
					sreqs[op.idx] = proc.Isend(m.dst, m.tag, matchFill(make([]byte, m.size), op.idx))
					reqs = append(reqs, sreqs[op.idx].Req())
					continue
				}
				r := &p.recvs[op.idx]
				if r.late && !probeUntil(proc, r.src, r.tag, deadline) {
					return
				}
				bufs[op.idx] = make([]byte, r.bufLen)
				rreqs[op.idx] = proc.Irecv(r.src, r.tag, bufs[op.idx])
				reqs = append(reqs, rreqs[op.idx].Req())
			}
			if !proc.Node.Eng.WaitAllTimeout(proc.Th, time.Until(deadline), reqs...) {
				return
			}
		}
	})
	sends := make([]sendOutcome, len(p.msgs))
	for i, s := range sreqs {
		if s != nil {
			sends[i] = sendOutcome{posted: true, done: s.Completed()}
			if sends[i].done {
				sends[i].err = s.Err()
			}
		}
	}
	recvs := make([]recvOutcome, len(p.recvs))
	for i, r := range rreqs {
		if r == nil {
			continue
		}
		recvs[i].posted = true
		if r.Completed() {
			recvs[i] = recvOutcome{posted: true, done: true, err: r.Err(), n: r.Len(), from: r.From(),
				tag: r.MatchedTag(), truncated: r.Truncated(), buf: bufs[i][:min(r.Len(), len(bufs[i]))]}
		}
	}
	return recvs, sends
}

// probeUntil polls until a message matching (src, tag) is pending or
// the deadline passes.
func probeUntil(proc *mpi.Proc, src, tag int, deadline time.Time) bool {
	never := new(piom.Request)
	for time.Now().Before(deadline) {
		if _, ok := proc.Iprobe(src, tag); ok {
			return true
		}
		proc.Node.Eng.WaitAllTimeout(proc.Th, 100*time.Microsecond, never)
	}
	return false
}

// checkMatching runs the one check over a run's joint outcome and
// returns every violation found.
func checkMatching(p *matchPlan, recvs []recvOutcome, sends []sendOutcome) []string {
	var bad, stopped []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	// Identify each completed receive's send, per receiver in posting
	// order. Sends no payload tells apart (same envelope and bytes) are
	// interchangeable, and take the earliest unmatched one.
	order := make([]int, len(p.recvs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := &p.recvs[order[a]], &p.recvs[order[b]]
		return ra.rank < rb.rank || ra.rank == rb.rank && ra.order < rb.order
	})
	matchedBy := make([]int, len(p.msgs))
	for i := range matchedBy {
		matchedBy[i] = -1
	}
	recvOf := make([]int, len(p.recvs))
	for _, ri := range order {
		r, out := &p.recvs[ri], &recvs[ri]
		recvOf[ri] = -1
		if !out.done {
			continue
		}
		if out.err != nil || out.truncated {
			fail("receive %d at rank %d %s: err %v, truncated %v", ri, r.rank, envelope(r.src, r.tag), out.err, out.truncated)
			continue
		}
		best, taken := -1, -1
		for mi := range p.msgs {
			m := &p.msgs[mi]
			if m.dst != r.rank || m.src != out.from || m.tag != out.tag || m.size != out.n ||
				!bytes.Equal(out.buf, matchFill(make([]byte, m.size), mi)) {
				continue
			}
			if matchedBy[mi] >= 0 {
				taken = mi
				continue
			}
			if best < 0 || m.order < p.msgs[best].order {
				best = mi
			}
		}
		switch {
		case best >= 0:
			m := &p.msgs[best]
			if !envelopeMatches(r.src, r.tag, m) {
				fail("receive %d at rank %d posted %s got send %d (%d→%d tag %d)", ri, r.rank, envelope(r.src, r.tag), best, m.src, m.dst, m.tag)
			}
			matchedBy[best], recvOf[ri] = ri, best
		case taken >= 0:
			fail("send %d matched twice: by receives %d and %d at rank %d", taken, matchedBy[taken], ri, r.rank)
		default:
			fail("receive %d at rank %d got %d B from %d tag %d that no send carried (corrupt payload or wrong envelope)", ri, r.rank, out.n, out.from, out.tag)
		}
	}
	// Non-overtaking: of two sends from one sender to one receiver that
	// a receive could match, the later one never goes to a receive
	// posted before the earlier one's.
	for r2 := range p.recvs {
		m2 := recvOf[r2]
		if m2 < 0 {
			continue
		}
		for r1 := range p.recvs {
			m1 := recvOf[r1]
			if m1 < 0 || p.msgs[m1].src != p.msgs[m2].src || p.msgs[m1].dst != p.msgs[m2].dst ||
				p.msgs[m1].order >= p.msgs[m2].order {
				continue
			}
			if envelopeMatches(p.recvs[r2].src, p.recvs[r2].tag, &p.msgs[m1]) && p.recvs[r1].order > p.recvs[r2].order {
				fail("overtaking: send %d (order %d) went to receive %d (posted %d), but earlier send %d (order %d) to later receive %d (posted %d), though receive %d matches it",
					m2, p.msgs[m2].order, r2, p.recvs[r2].order, m1, p.msgs[m1].order, r1, p.recvs[r1].order, r2)
			}
		}
	}
	for ri := range p.recvs {
		if recvs[ri].done {
			continue
		}
		r := &p.recvs[ri]
		if !recvs[ri].posted {
			stopped = append(stopped, fmt.Sprintf("receive %d at rank %d %s was never posted: its rank stopped at the deadline", ri, r.rank, envelope(r.src, r.tag)))
			continue
		}
		unmatched := -1
		for mi := range p.msgs {
			if matchedBy[mi] < 0 && p.msgs[mi].dst == r.rank && envelopeMatches(r.src, r.tag, &p.msgs[mi]) {
				unmatched = mi
				break
			}
		}
		if unmatched >= 0 {
			m := &p.msgs[unmatched]
			fail("receive %d at rank %d %s pending while send %d (%d→%d tag %d, %d B) is unmatched", ri, r.rank, envelope(r.src, r.tag), unmatched, m.src, m.dst, m.tag, m.size)
		} else {
			fail("receive %d at rank %d %s pending with no unmatched send it matches", ri, r.rank, envelope(r.src, r.tag))
		}
	}
	for mi, s := range sends {
		m := &p.msgs[mi]
		switch {
		case !s.posted:
			stopped = append(stopped, fmt.Sprintf("send %d (%d→%d tag %d, %d B) was never posted: its rank stopped at the deadline", mi, m.src, m.dst, m.tag, m.size))
		case s.err != nil:
			fail("send %d (%d→%d tag %d) failed: %v", mi, m.src, m.dst, m.tag, s.err)
		case matchedBy[mi] < 0:
			fail("send %d (%d→%d tag %d, %d B) was never matched (send completed: %v)", mi, m.src, m.dst, m.tag, m.size, s.done)
		case !s.done:
			fail("send %d (%d→%d tag %d, %d B) was matched but did not complete", mi, m.src, m.dst, m.tag, m.size)
		}
	}
	return append(bad, stopped...)
}

// matchingWorld opens one three-rank world for the checker; seed drives
// any disorder it injects.
type matchingWorld struct {
	name string
	open func(t testing.TB, seed int64) *mpi.World
}

// matchingWorlds lists every world the checker runs on: the simulated
// MX rail, the same under reordering, duplication and latency, the real
// tcp, shm and udp transports (udp reorders on its own), and two
// weighted simulated rails, which stripe every rendezvous of stripeMin
// or more.
func matchingWorlds() []matchingWorld {
	simulated := func() mpi.Config {
		cfg := mpi.DefaultMultithreaded(matchRanks)
		cfg.Machine = topo.Machine{Sockets: 1, CoresPerSocket: 2}
		return cfg
	}
	real := func(rail nic.Params, f fabric.Fabric) *mpi.World {
		cfg := mpi.DefaultMultithreaded(matchRanks)
		cfg.MX, cfg.SHM = rail, nic.Params{}
		cfg.Fabrics = map[string]fabric.Fabric{rail.Name: f}
		return mpi.NewWorld(cfg)
	}
	return []matchingWorld{
		{"simfab", func(t testing.TB, _ int64) *mpi.World { return mpi.NewWorld(simulated()) }},
		{"chaos", func(t testing.TB, seed int64) *mpi.World {
			mx := nic.MXParams()
			return real(mx, conformance.NewChaos(simfab.New(wire.NewFabric(matchRanks, mx.Link)), conformance.ChaosConfig{
				Seed: seed, Reorder: 0.2, ReorderDelay: 300 * time.Microsecond, Duplicate: 0.1, Latency: 20 * time.Microsecond,
			}))
		}},
		{"tcpfab", func(t testing.TB, _ int64) *mpi.World {
			f, err := tcpfab.NewLocal(matchRanks)
			if err != nil {
				t.Fatal(err)
			}
			return real(nic.RealParams(), f)
		}},
		{"shmfab", func(t testing.TB, _ int64) *mpi.World {
			f, err := shmfab.NewLocal(matchRanks, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return real(nic.ShmParams(), f)
		}},
		{"udpfab", func(t testing.TB, _ int64) *mpi.World {
			f, err := udpfab.NewLocal(matchRanks)
			if err != nil {
				t.Fatal(err)
			}
			return real(nic.UdpParams(), f)
		}},
		{"striped", func(t testing.TB, _ int64) *mpi.World {
			cfg := simulated()
			cfg.ExtraRails = []nic.Params{nic.TCPParams()}
			return mpi.NewWorld(cfg)
		}},
	}
}

// runMatching generates seed's plan, runs it on a fresh world and fails
// t with every violation, naming the seed and how to replay it.
func runMatching(t testing.TB, world matchingWorld, seed int64) {
	p := genMatchPlan(seed)
	w := world.open(t, seed)
	recvs, sends := runMatchPlan(w, p)
	w.Close()
	if bad := checkMatching(p, recvs, sends); len(bad) > 0 {
		if len(bad) > 10 {
			bad = append(bad[:10], fmt.Sprintf("... and %d more", len(bad)-10))
		}
		t.Fatalf("%s world, seed %d (replay: PIOMAN_MATCH_SEED=%d go test -run 'TestMatching/%s' ./internal/mpi): %d sends, %d receives:\n%s",
			world.name, seed, seed, world.name, len(p.msgs), len(p.recvs), strings.Join(bad, "\n"))
	}
}

// matchSeeds is the fixed tier-1 seed set, or the one seed
// PIOMAN_MATCH_SEED names.
func matchSeeds(t *testing.T) []int64 {
	if s := os.Getenv("PIOMAN_MATCH_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PIOMAN_MATCH_SEED %q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1, 2, 3}
}

// TestMatching runs the matching checker over every world.
func TestMatching(t *testing.T) {
	for _, world := range matchingWorlds() {
		t.Run(world.name, func(t *testing.T) {
			for _, seed := range matchSeeds(t) {
				runMatching(t, world, seed)
			}
		})
	}
}

// FuzzMatching takes the plan's seed as input; the seed also picks the
// world, so fuzzing explores plans and worlds together.
func FuzzMatching(f *testing.F) {
	f.Add(int64(4))
	f.Add(int64(7))
	worlds := matchingWorlds()
	f.Fuzz(func(t *testing.T, seed int64) {
		runMatching(t, worlds[uint64(seed)%uint64(len(worlds))], seed)
	})
}
