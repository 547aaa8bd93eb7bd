package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pioman/internal/fabric/bufpool"
	"pioman/internal/wire"
)

// trainEntry is one message of an injected train.
type trainEntry struct {
	tag  int
	seq  uint64
	data []byte
}

// entries builds one train entry per tag, sequence numbers counting up
// from first, each payload naming its sequence number and tag.
func entries(first uint64, tags ...int) []trainEntry {
	out := make([]trainEntry, len(tags))
	for i, tag := range tags {
		seq := first + uint64(i)
		out[i] = trainEntry{tag: tag, seq: seq, data: []byte(fmt.Sprintf("msg seq=%d tag=%d", seq, tag))}
	}
	return out
}

// inject hands es to e as arrivals from src, holding pollLock as every
// packet handler's caller does: as one aggregated frame — the matchTrain
// path — or, perEntry, as one eager frame per entry, the reference path.
func inject(e *Engine, src int, es []trainEntry, perEntry bool) {
	e.pollLock.Lock()
	defer e.pollLock.Unlock()
	if perEntry {
		for _, en := range es {
			e.handlePacket(e.defaultRail(), -1, &wire.Packet{Kind: wire.PktEager, Src: src, Tag: en.tag, Seq: en.seq, Payload: en.data})
		}
		return
	}
	train := make([]*SendReq, len(es))
	for i, en := range es {
		train[i] = &SendReq{tag: en.tag, seq: en.seq, data: en.data}
	}
	e.handlePacket(e.defaultRail(), -1, &wire.Packet{Kind: wire.PktAggr, Src: src, Tag: -1, Seq: es[0].seq, Payload: pooledTrain(train)})
}

// pooledTrain encodes train into a fabric buffer-pool borrow, as
// nic.Driver.SendAggr does for a transport that cannot build the frame
// in place.
func pooledTrain(train []*SendReq) []byte {
	out := bufpool.Get(aggrSize(train))
	encodeAggr(out, train)
	return out
}

// trainOutcome is everything a scenario leaves behind that matching
// decides: each posted receive's result in post order, the unexpected
// list, rank 1's stream position, and the drop count.
type trainOutcome struct {
	Recvs      []string
	Unexpected []string
	LastSeq    uint64
	Stashed    int
	Dropped    uint64
}

type recvSpec struct{ src, tag int }

type trainCase struct {
	name  string
	recvs []recvSpec
	// steps run in order; each either injects a train from rank 1 (es)
	// or acts on the engine (do).
	steps []trainStep
	// viaTrain marks scenarios whose train path must match at least one
	// entry inside matchTrain, so the comparison cannot pass with the
	// walk silently bypassed.
	viaTrain bool
}

type trainStep struct {
	es []trainEntry
	do func(e *Engine)
}

func trains(es ...[]trainEntry) []trainStep {
	steps := make([]trainStep, len(es))
	for i := range es {
		steps[i].es = es[i]
	}
	return steps
}

// runTrainCase plays tc on a fresh Sequential engine — nothing progresses
// behind the test's back — and reports the outcome.
func runTrainCase(t *testing.T, tc trainCase, perEntry bool) (trainOutcome, *Engine) {
	t.Helper()
	e := newCluster(t, 3, withMode(Sequential)).Nodes[0].Eng
	reqs := make([]*RecvReq, len(tc.recvs))
	for i, rs := range tc.recvs {
		reqs[i] = e.Irecv(rs.src, rs.tag, make([]byte, 64))
	}
	for _, st := range tc.steps {
		if st.do != nil {
			st.do(e)
		} else {
			inject(e, 1, st.es, perEntry)
		}
	}
	var out trainOutcome
	for _, r := range reqs {
		switch {
		case !r.Completed():
			out.Recvs = append(out.Recvs, "pending")
		case r.Err() != nil:
			out.Recvs = append(out.Recvs, "failed: "+r.Err().Error())
		default:
			out.Recvs = append(out.Recvs, fmt.Sprintf("from=%d tag=%d %q", r.From(), r.MatchedTag(), r.buf[:r.Len()]))
		}
	}
	e.qlock.Lock()
	for _, u := range e.unexpected {
		out.Unexpected = append(out.Unexpected, fmt.Sprintf("from=%d tag=%d %q", u.src, u.tag, u.payload))
	}
	out.LastSeq, out.Stashed = e.peers[1].lastSeq, len(e.peers[1].stash)
	e.qlock.Unlock()
	out.Dropped = e.Stats().FramesDropped
	return out, e
}

// TestMatchTrainSameAsPerEntry plays each scenario twice — the train as
// one aggregated frame through matchTrain, and as one eager frame per
// entry — and requires identical matching: which receive got which
// payload, what turned unexpected, the stream position and the drops.
func TestMatchTrainSameAsPerEntry(t *testing.T) {
	cases := []trainCase{
		{
			name:     "all expected",
			recvs:    []recvSpec{{1, 1}, {1, 2}, {1, 3}, {1, 4}},
			steps:    trains(entries(1, 1, 2, 3, 4)),
			viaTrain: true,
		},
		{
			name:     "expected prefix then unexpected tail",
			recvs:    []recvSpec{{1, 1}, {1, 2}, {1, 4}},
			steps:    trains(entries(1, 1, 2, 3, 4, 5)),
			viaTrain: true,
		},
		{
			name:  "unexpected head",
			recvs: []recvSpec{{1, 2}},
			steps: trains(entries(1, 1, 2)),
		},
		{
			name:  "gap filled from the stash",
			recvs: []recvSpec{{1, 1}, {1, 2}, {1, 3}, {1, 4}},
			steps: trains(entries(4, 4), entries(1, 1, 2, 3)),
		},
		{
			name:  "stash gap left open",
			recvs: []recvSpec{{1, 1}, {1, 2}, {1, 3}, {1, 6}},
			steps: trains(entries(6, 6), entries(1, 1, 2, 3)),
		},
		{
			name:     "AnySource and AnyTag",
			recvs:    []recvSpec{{AnySource, 2}, {1, AnyTag}, {AnySource, AnyTag}, {2, 1}},
			steps:    trains(entries(1, 1, 2, 3, 1)),
			viaTrain: true,
		},
		{
			name:  "peer dead between trains",
			recvs: []recvSpec{{1, 1}, {1, 2}, {AnySource, 3}, {AnySource, 4}},
			steps: []trainStep{
				{es: entries(1, 1)},
				{do: func(e *Engine) { e.MarkPeerDead(1) }},
				{es: entries(2, 2, 3)},
				// Sequence numbers the reset stream would accept.
				{es: entries(1, 3, 4)},
				{do: func(e *Engine) { e.MarkPeerAlive(1) }},
				{es: entries(1, 4, 3)},
			},
			viaTrain: true,
		},
		{
			name:     "consumed sequence numbers replayed",
			recvs:    []recvSpec{{1, AnyTag}, {1, AnyTag}, {1, AnyTag}, {1, AnyTag}},
			steps:    trains(entries(1, 1, 2), entries(2, 2, 3)),
			viaTrain: true,
		},
		{
			name:     "longer than one hold",
			recvs:    anyRecvs(2*trainHold + 3),
			steps:    trains(entries(1, make([]int, 2*trainHold+3)...)),
			viaTrain: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			viaTrain, e := runTrainCase(t, tc, false)
			perEntry, _ := runTrainCase(t, tc, true)
			if !reflect.DeepEqual(viaTrain, perEntry) {
				t.Fatalf("train path and per-entry path disagree:\ntrain:     %+v\nper-entry: %+v", viaTrain, perEntry)
			}
			if tc.viaTrain && cap(e.matchBuf) == 0 {
				t.Fatal("matchTrain matched nothing: the comparison exercised only the fallback")
			}
		})
	}
}

// anyRecvs returns n receives for tag 0 from rank 1.
func anyRecvs(n int) []recvSpec {
	out := make([]recvSpec, n)
	for i := range out {
		out[i] = recvSpec{1, 0}
	}
	return out
}

// TestMatchTrainRacingIrecv posts receives on one goroutine while trains
// arrive on another. Whatever the interleaving — an entry matched inside
// matchTrain, turned unexpected and claimed by a later Irecv, or matched
// in the fallback — the k-th receive for a tag must get the k-th message
// sent with that tag, which is what the per-entry path guarantees.
func TestMatchTrainRacingIrecv(t *testing.T) {
	const (
		msgs  = 240
		tags  = 3
		batch = 8
	)
	for _, perEntry := range []bool{false, true} {
		t.Run(fmt.Sprintf("perEntry=%v", perEntry), func(t *testing.T) {
			e := newCluster(t, 2, withMode(Sequential)).Nodes[0].Eng
			all := make([]int, msgs)
			for i := range all {
				all[i] = i % tags
			}
			sent := entries(1, all...)
			reqs := make([]*RecvReq, msgs)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := range reqs {
					reqs[i] = e.Irecv(1, i%tags, make([]byte, 64))
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i += batch {
					inject(e, 1, sent[i:i+batch], perEntry)
				}
			}()
			wg.Wait()
			for i, r := range reqs {
				if !r.Completed() {
					t.Fatalf("receive %d still pending after every message arrived", i)
				}
				if got, want := string(r.buf[:r.Len()]), string(sent[i].data); got != want {
					t.Fatalf("receive %d (tag %d) got %q, want %q", i, i%tags, got, want)
				}
			}
		})
	}
}
