package core

import (
	"encoding/binary"
	"fmt"

	"pioman/internal/sync2"
)

// parseStrategy resolves Config.Strategy, once, into the optimizer's
// eager policy (Fig. 3): whether to aggregate. A train leaving the send
// queue is then the contiguous same-destination run at its head, up to
// the rail MTU — the data-aggregation optimization of [2] — so a window
// of ready small sends to one peer leaves as one frame (a lone send
// still leaves as a plain eager frame). Without it every send is its
// own train.
//
// "" and "aggreg" aggregate (the default), "fifo" does not (the
// reference row of the strategy ablation). Striping is no strategy: the
// rails decide it (see Engine.stripe). Anything else is a hard error: a
// misspelled strategy must fail loudly at engine construction, not run
// the whole experiment on a silently substituted policy.
func parseStrategy(name string) (aggregate bool) {
	switch name {
	case "fifo":
		return false
	case "", "aggreg":
		return true
	default:
		panic(fmt.Sprintf("core: unknown strategy %q", name))
	}
}

// sendQueue holds the eager sends waiting for a free rail, in post order
// (the figure's "waiting packs" — the requests themselves queue; there is
// no wrapper to allocate per message). The head index (rather than
// re-slicing q[1:]) keeps the backing array's capacity across
// enqueue/dequeue cycles, so a steady request stream recycles one array
// instead of reallocating per send. Guarded by the engine's qlock.
type sendQueue struct {
	q    []*SendReq
	head int
}

// push appends a ready eager send.
func (s *sendQueue) push(r *SendReq) {
	s.q, s.head = sync2.CompactQueue(s.q, s.head)
	s.q = append(s.q, r)
}

// peek returns the next send to leave the queue without removing it, or
// nil when empty. The engine checks whether the destination rail can
// accept a submission before taking the train.
func (s *sendQueue) peek() *SendReq {
	if s.head == len(s.q) {
		return nil
	}
	return s.q[s.head]
}

// take removes the next train from a non-empty queue and returns it
// appended to into[:0]: the head send, plus — when aggregate — the run of
// sends to the same destination right behind it whose aggregated entries
// fit mtu. Taking only a contiguous run preserves global post order, so
// per-(src,tag) FIFO matching is unaffected. The caller owns the train
// until the next take, so a reused train buffer keeps steady-state
// submission allocation-free.
func (s *sendQueue) take(into []*SendReq, aggregate bool, mtu int) []*SendReq {
	hd := s.q[s.head]
	train := append(into[:0], hd)
	next := s.head + 1
	if aggregate {
		budget := mtu - aggrEntryOverhead - len(hd.data)
		for ; next < len(s.q); next++ {
			r := s.q[next]
			need := aggrEntryOverhead + len(r.data)
			if r.dst != hd.dst || need > budget {
				break
			}
			train = append(train, r)
			budget -= need
		}
	}
	// Drop the queue's aliases of the sends the train now owns, and
	// rewind to the array's start once empty.
	clear(s.q[s.head:next])
	s.head = next
	if s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
	return train
}

// Aggregated train wire format: repeated entries of
// [tag int64][seq uint64][len uint64][payload].
const aggrEntryOverhead = 24

// aggrSize returns the encoded size of a train.
func aggrSize(train []*SendReq) int {
	total := 0
	for _, r := range train {
		total += aggrEntryOverhead + len(r.data)
	}
	return total
}

// encodeAggr serializes a train into out, which holds exactly
// aggrSize(train) bytes — a fabric buffer-pool borrow, or the
// transport's own send memory (nic.Driver.SendAggr).
func encodeAggr(out []byte, train []*SendReq) {
	off := 0
	for _, r := range train {
		binary.LittleEndian.PutUint64(out[off:], uint64(int64(r.tag)))
		binary.LittleEndian.PutUint64(out[off+8:], r.seq)
		binary.LittleEndian.PutUint64(out[off+16:], uint64(len(r.data)))
		off += aggrEntryOverhead
		off += copy(out[off:], r.data)
	}
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
