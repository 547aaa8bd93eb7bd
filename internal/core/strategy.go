package core

import (
	"encoding/binary"
	"fmt"

	"pioman/internal/fabric/bufpool"
	"pioman/internal/sync2"
)

// strategy is the optimizer of Fig. 3: it owns the queue of waiting
// eager sends (the figure's "waiting packs" — the requests themselves
// queue; there is no wrapper to allocate per message) and decides what
// to put on the wire next. Implementations are called under the engine's
// qlock and must therefore be allocation-light and non-blocking.
type strategy interface {
	Name() string
	// Enqueue adds a ready eager send.
	Enqueue(r *SendReq)
	// Head returns the next send to leave the queue without removing it,
	// or nil when empty. The engine peeks it to check whether the
	// destination rail can accept a submission before dequeuing.
	Head() *SendReq
	// Dequeue appends the next train to submit — one or more sends for
	// the same destination — to into (reset to length zero first) and
	// returns it, or nil when the queue is empty. The caller owns the
	// returned slice until the next Dequeue, so a reused train buffer
	// makes steady-state submission allocation-free. mtuOf reports the
	// payload budget of the rail serving a destination.
	Dequeue(mtuOf func(dst int) int, into []*SendReq) []*SendReq
}

// newStrategy resolves a strategy name ("" defaults to aggreg: a window
// of ready small sends to one peer leaves as one frame, and a lone send
// still leaves as a plain eager frame; "fifo" remains as the reference
// row of the strategy ablation). Every name maps to a dedicated
// implementation and anything else is a hard error: a misspelled
// strategy must fail loudly at engine construction, not run the whole
// experiment on a silently substituted policy.
func newStrategy(name string) strategy {
	switch name {
	case "fifo":
		return &fifoStrategy{}
	case "", "aggreg", "aggregation":
		return &aggrStrategy{}
	case "multirail":
		return &multirailStrategy{}
	default:
		panic(fmt.Sprintf("core: unknown strategy %q", name))
	}
}

// fifoStrategy submits sends one at a time in post order. The head
// index (rather than re-slicing q[1:]) keeps the backing array's
// capacity across enqueue/dequeue cycles, so a steady request stream
// recycles one array instead of reallocating per send.
type fifoStrategy struct {
	q    []*SendReq
	head int
}

// Name identifies the strategy.
func (s *fifoStrategy) Name() string { return "fifo" }

func (s *fifoStrategy) Enqueue(r *SendReq) {
	s.q, s.head = sync2.CompactQueue(s.q, s.head)
	s.q = append(s.q, r)
}

func (s *fifoStrategy) Head() *SendReq {
	if s.head == len(s.q) {
		return nil
	}
	return s.q[s.head]
}

func (s *fifoStrategy) Dequeue(mtuOf func(int) int, into []*SendReq) []*SendReq {
	if s.head == len(s.q) {
		return nil
	}
	train := append(into[:0], s.q[s.head])
	s.advance(s.head + 1)
	return train
}

// advance moves the head to next, dropping the queue's aliases of the
// sends a train now owns and rewinding to the array's start once empty.
func (s *fifoStrategy) advance(next int) {
	clear(s.q[s.head:next])
	s.head = next
	if s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
}

// multirailStrategy is the bonded-rails optimizer: eager sends queue in
// plain post order (small messages do not benefit from splitting — the
// per-rail handshakes would dominate), while its distinguishing policy
// lives on the engine's rendezvous data path, keyed off Name(): payloads
// at or above Config.MultirailMin are striped across every rail with a
// positive stripe weight, proportionally to those weights, in MTU-sized
// chunks (Engine.sendRdvData / stripeData). It is a distinct type rather
// than a renamed fifoStrategy so tests can pin that selecting "multirail"
// actually engages multirail placement.
type multirailStrategy struct {
	fifoStrategy
}

// Name identifies the strategy; the engine's data-placement path keys off
// this value.
func (s *multirailStrategy) Name() string { return "multirail" }

// aggrStrategy coalesces consecutive same-destination sends into one wire
// packet up to the rail MTU — the data-aggregation optimization of [2].
// It queues exactly like fifo and differs only in how much a Dequeue
// takes: a contiguous same-destination run, which preserves global post
// order, so per-(src,tag) FIFO matching is unaffected.
type aggrStrategy struct {
	fifoStrategy
}

func (s *aggrStrategy) Name() string { return "aggreg" }

func (s *aggrStrategy) Dequeue(mtuOf func(int) int, into []*SendReq) []*SendReq {
	if s.head == len(s.q) {
		return nil
	}
	hd := s.q[s.head]
	budget := mtuOf(hd.dst) - aggrEntryOverhead - len(hd.data)
	train := append(into[:0], hd)
	i := s.head + 1
	for ; i < len(s.q); i++ {
		r := s.q[i]
		need := aggrEntryOverhead + len(r.data)
		if r.dst != hd.dst || need > budget {
			break
		}
		train = append(train, r)
		budget -= need
	}
	s.advance(i)
	return train
}

// Aggregated train wire format: repeated entries of
// [tag int64][seq uint64][len uint64][payload].
const aggrEntryOverhead = 24

// encodeAggr serializes a train into one payload drawn from the fabric
// buffer pool; the caller hands it to nic.Driver.SendAggr, which takes
// ownership.
func encodeAggr(train []*SendReq) []byte {
	total := 0
	for _, r := range train {
		total += aggrEntryOverhead + len(r.data)
	}
	out := bufpool.Get(total)
	off := 0
	for _, r := range train {
		binary.LittleEndian.PutUint64(out[off:], uint64(int64(r.tag)))
		binary.LittleEndian.PutUint64(out[off+8:], r.seq)
		binary.LittleEndian.PutUint64(out[off+16:], uint64(len(r.data)))
		off += aggrEntryOverhead
		off += copy(out[off:], r.data)
	}
	return out
}

// validAggr reports whether payload is a well-formed train: one or more
// whole entries, every declared length within bounds. Checking the whole
// payload up front lets the receive path walk it in place with
// splitAggr, building nothing.
func validAggr(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	for len(payload) > 0 {
		if len(payload) < aggrEntryOverhead {
			return false
		}
		n := binary.LittleEndian.Uint64(payload[16:])
		payload = payload[aggrEntryOverhead:]
		if n > uint64(len(payload)) {
			return false
		}
		payload = payload[n:]
	}
	return true
}

// splitAggr returns the first entry of a train validAggr accepted and the
// entries after it. data aliases train.
func splitAggr(train []byte) (tag int, seq uint64, data, rest []byte) {
	tag = int(int64(binary.LittleEndian.Uint64(train[0:])))
	seq = binary.LittleEndian.Uint64(train[8:])
	n := binary.LittleEndian.Uint64(train[16:])
	train = train[aggrEntryOverhead:]
	return tag, seq, train[:n:n], train[n:]
}
