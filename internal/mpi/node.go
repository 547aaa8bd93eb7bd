package mpi

import (
	"fmt"
	"sync/atomic"
	"time"

	"pioman/internal/core"
	"pioman/internal/piom"
	"pioman/internal/sched"
	"pioman/internal/trace"
)

// Node is one cluster node: an MPI-process analog hosting many threads.
type Node struct {
	world *World
	rank  int
	Sch   *sched.Scheduler
	Srv   *piom.Server
	Eng   *core.Engine
	Trace *trace.Recorder

	barrierGen atomic.Uint64
}

// Rank returns the node's rank.
func (n *Node) Rank() int { return n.rank }

// World returns the owning world.
func (n *Node) World() *World { return n.world }

// Spawn starts an application thread on this node's cores.
func (n *Node) Spawn(name string, fn func(*Proc)) *sched.Thread {
	return n.Sch.Spawn(name, func(th *sched.Thread) {
		fn(&Proc{Node: n, Th: th})
	})
}

// Run spawns fn and waits for it to finish.
func (n *Node) Run(fn func(*Proc)) {
	n.Spawn("run", fn).Join()
}

// Proc is the handle a node thread uses to communicate and compute: it
// couples the node's engine with the thread's core scheduling, mirroring
// the paper's benchmark programs (Fig. 4 / Fig. 7).
type Proc struct {
	Node *Node
	Th   *sched.Thread
}

// Rank returns the owning node's rank.
func (p *Proc) Rank() int { return p.Node.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.Node.world.Size() }

// Compute spins for d on the thread's core (the compute() phase). When an
// offloaded eager send waits for a core, the thread first hands its
// processor to the worker that submits it, so the send progresses during
// the computation (Fig. 5).
func (p *Proc) Compute(d time.Duration) {
	if p.Node.Eng.OffloadWaiting() {
		p.Th.HandOff()
	}
	p.Th.Compute(d)
}

// Isend posts an asynchronous send (nm_isend).
func (p *Proc) Isend(dst, tag int, data []byte) *core.SendReq {
	return p.Node.Eng.Isend(dst, tag, data)
}

// Irecv posts an asynchronous receive.
func (p *Proc) Irecv(src, tag int, buf []byte) *core.RecvReq {
	return p.Node.Eng.Irecv(src, tag, buf)
}

// WaitSend waits for a send to complete (nm_swait).
func (p *Proc) WaitSend(r *core.SendReq) { p.Node.Eng.WaitSend(r, p.Th) }

// WaitRecv waits for a receive to complete.
func (p *Proc) WaitRecv(r *core.RecvReq) { p.Node.Eng.WaitRecv(r, p.Th) }

// Wait waits on any request.
func (p *Proc) Wait(r *piom.Request) { p.Node.Eng.Wait(r, p.Th) }

// Send is a blocking send. It owns the request's full lifecycle, so the
// request recycles through the engine's freelist — a blocking exchange
// allocates no request state in steady state.
func (p *Proc) Send(dst, tag int, data []byte) {
	r := p.Isend(dst, tag, data)
	p.WaitSend(r)
	r.Release()
}

// Recv is a blocking receive; it returns the byte count and sender. Like
// Send it recycles its request through the engine's freelist.
func (p *Proc) Recv(src, tag int, buf []byte) (int, int) {
	r := p.Irecv(src, tag, buf)
	p.WaitRecv(r)
	n, from := r.Len(), r.From()
	r.Release()
	return n, from
}

// SendErr is Send with the failure surfaced: it returns core.ErrPeerDead
// when the destination rank was declared dead (the post was refused fast,
// or the rank died while the send was pending), nil otherwise. The
// request still recycles either way.
func (p *Proc) SendErr(dst, tag int, data []byte) error {
	r := p.Isend(dst, tag, data)
	p.WaitSend(r)
	err := r.Err()
	r.Release()
	return err
}

// RecvErr is Recv with the failure surfaced: byte count and sender are
// valid only when the error is nil; core.ErrPeerDead reports that the
// named source rank died before (or while) the message was owed.
func (p *Proc) RecvErr(src, tag int, buf []byte) (int, int, error) {
	r := p.Irecv(src, tag, buf)
	p.WaitRecv(r)
	n, from, err := r.Len(), r.From(), r.Err()
	r.Release()
	return n, from, err
}

// Collective tags live in a reserved negative range so they never collide
// with application traffic.
const (
	tagBarrier = -1000 - iota
	tagBcast
	tagGather
	tagReduce
)

// collTag derives a per-generation collective tag.
func collTag(base int, gen uint64) int {
	return base - 16*int(gen%1_000_000)
}

// Barrier synchronizes all nodes: non-roots signal rank 0 and wait for the
// release; rank 0 gathers then broadcasts. Built entirely on the engine's
// eager path, so it also exercises unexpected-message handling under
// contention.
//
// Rank 0 gathers with one receive per rank rather than a count of
// AnySource matches: a per-rank receive naming a dead peer completes with
// core.ErrPeerDead (and one posted toward a rank that dies mid-wait is
// failed by the death sweep), so the barrier closes over the survivor set
// instead of waiting forever for a contribution that cannot come. Sends
// toward dead ranks fail fast; their requests complete like any other.
func (p *Proc) Barrier() {
	gen := p.Node.barrierGen.Add(1)
	tag := collTag(tagBarrier, gen)
	size := p.Size()
	if size == 1 {
		return
	}
	if p.Rank() == 0 {
		bufs := make([][1]byte, size)
		reqs := make([]*core.RecvReq, 0, size-1)
		for i := 1; i < size; i++ {
			reqs = append(reqs, p.Irecv(i, tag, bufs[i][:]))
		}
		for _, r := range reqs {
			p.WaitRecv(r)
			r.Release()
		}
		for i := 1; i < size; i++ {
			p.Send(i, tag, []byte{1})
		}
		return
	}
	p.Send(0, tag, []byte{0})
	var b [1]byte
	p.Recv(0, tag, b[:])
}

// Bcast broadcasts buf from root to every node; all nodes must call it
// with same-sized buffers.
func (p *Proc) Bcast(root int, buf []byte) {
	gen := p.Node.barrierGen.Add(1)
	tag := collTag(tagBcast, gen)
	if p.Rank() == root {
		reqs := make([]*core.SendReq, 0, p.Size()-1)
		for i := 0; i < p.Size(); i++ {
			if i == root {
				continue
			}
			reqs = append(reqs, p.Isend(i, tag, buf))
		}
		for _, r := range reqs {
			p.WaitSend(r)
			r.Release()
		}
		return
	}
	p.Recv(root, tag, buf)
}

// Gather collects each node's contribution into parts on root (parts is
// only written on root and must have world-size entries, each large enough
// for the corresponding contribution).
func (p *Proc) Gather(root int, contrib []byte, parts [][]byte) {
	gen := p.Node.barrierGen.Add(1)
	tag := collTag(tagGather, gen)
	if p.Rank() != root {
		p.Send(root, tag, contrib)
		return
	}
	if len(parts) != p.Size() {
		panic(fmt.Sprintf("mpi: Gather parts has %d entries for %d nodes", len(parts), p.Size()))
	}
	copy(parts[root], contrib)
	reqs := make([]*core.RecvReq, 0, p.Size()-1)
	for i := 0; i < p.Size(); i++ {
		if i == root {
			continue
		}
		reqs = append(reqs, p.Irecv(i, tag, parts[i]))
	}
	for _, r := range reqs {
		p.WaitRecv(r)
		r.Release()
	}
}

// allReduce8 is the shared exchange of the scalar reduce family: every
// node contributes one 8-byte value, rank 0 folds them with add, and the
// result is broadcast back (gather-to-0 then broadcast).
func (p *Proc) allReduce8(mine []byte, add func(acc, v []byte) []byte) []byte {
	gen := p.Node.barrierGen.Add(1)
	tag := collTag(tagReduce, gen)
	size := p.Size()
	if size == 1 {
		return mine
	}
	if p.Rank() == 0 {
		// Per-rank receives, like Barrier: a dead rank's contribution
		// error-completes and is left out of the fold, so the reduction
		// closes over the survivor set.
		bufs := make([][8]byte, size)
		reqs := make([]*core.RecvReq, 0, size-1)
		for i := 1; i < size; i++ {
			reqs = append(reqs, p.Irecv(i, tag, bufs[i][:]))
		}
		acc := mine
		for i, r := range reqs {
			p.WaitRecv(r)
			if r.Err() == nil {
				acc = add(acc, bufs[i+1][:])
			}
			r.Release()
		}
		for i := 1; i < size; i++ {
			p.Send(i, tag, acc)
		}
		return acc
	}
	p.Send(0, tag, mine)
	b := make([]byte, 8)
	p.Recv(0, tag, b)
	return b
}

// AllReduceSum sums one float64 across all nodes and returns the total on
// every node.
func (p *Proc) AllReduceSum(x float64) float64 {
	return bytesToF64(p.allReduce8(f64ToBytes(x), func(acc, v []byte) []byte {
		return f64ToBytes(bytesToF64(acc) + bytesToF64(v))
	}))
}

// AllReduceSumI64 sums one int64 across all nodes and returns the total
// on every node — the exact-count companion of AllReduceSum (bytes moved,
// packets seen, iterations completed).
func (p *Proc) AllReduceSumI64(x int64) int64 {
	return bytesToI64(p.allReduce8(i64ToBytes(x), func(acc, v []byte) []byte {
		return i64ToBytes(bytesToI64(acc) + bytesToI64(v))
	}))
}
