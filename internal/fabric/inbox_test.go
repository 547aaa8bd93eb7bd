package fabric_test

import (
	"testing"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/testenv"
	"pioman/internal/wire"
)

// TestInboxPopRun pins the queue half of the shared inbox: PopRun hands
// packets out in push order, stops at the buffer's capacity, leaves
// entries past the returned count untouched, and returns 0 on an empty
// queue or an empty buffer.
func TestInboxPopRun(t *testing.T) {
	ib := fabric.NewInbox()
	sentinel := &wire.Packet{Seq: 999}
	into := []*wire.Packet{nil, nil, nil, sentinel}
	if n := ib.PopRun(into); n != 0 {
		t.Fatalf("PopRun on a fresh inbox = %d, want 0", n)
	}
	ib.Push(&wire.Packet{Seq: 1})
	ib.PushRun([]*wire.Packet{{Seq: 2}, {Seq: 3}, {Seq: 4}})
	ib.PushRun(nil)
	ib.Push(&wire.Packet{Seq: 5})
	if n := ib.PopRun(into[:3]); n != 3 {
		t.Fatalf("PopRun(cap 3) = %d, want 3", n)
	}
	for i, want := range []uint64{1, 2, 3} {
		if into[i].Seq != want {
			t.Errorf("run[%d].Seq = %d, want %d (FIFO)", i, into[i].Seq, want)
		}
	}
	if into[3] != sentinel {
		t.Error("PopRun wrote past the provided buffer")
	}
	into[2] = sentinel
	if n := ib.PopRun(into); n != 2 {
		t.Fatalf("PopRun on the 2-packet remainder = %d, want 2", n)
	}
	if into[0].Seq != 4 || into[1].Seq != 5 {
		t.Errorf("remainder out of order: %d, %d", into[0].Seq, into[1].Seq)
	}
	if into[2] != sentinel || into[3] != sentinel {
		t.Error("PopRun touched entries past the count it returned")
	}
	if n := ib.PopRun(into); n != 0 {
		t.Errorf("PopRun on a drained inbox = %d, want 0", n)
	}
	ib.Push(&wire.Packet{Seq: 6})
	if n := ib.PopRun(nil); n != 0 {
		t.Errorf("PopRun into an empty buffer = %d, want 0", n)
	}
}

// TestInboxRecv pins the waiting half: a queued packet returns at once,
// an idle wait runs to its timeout, and closing done wakes a parked
// receiver with nil — after anything still queued has been handed out.
func TestInboxRecv(t *testing.T) {
	ib := fabric.NewInbox()
	done := make(chan struct{})
	ib.Push(&wire.Packet{Seq: 1})
	if p := ib.Recv(time.Minute, done); p == nil || p.Seq != 1 {
		t.Fatalf("Recv with a packet queued = %+v", p)
	}
	start := time.Now()
	if p := ib.Recv(20*time.Millisecond, done); p != nil {
		t.Fatalf("idle Recv returned %+v", p)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("idle Recv returned after %v, before its timeout", d)
	}
	woke := make(chan *wire.Packet, 1)
	go func() { woke <- ib.Recv(time.Minute, done) }()
	time.Sleep(5 * time.Millisecond)
	close(done)
	select {
	case p := <-woke:
		if p != nil {
			t.Fatalf("close woke the receiver with %+v", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closing done did not wake Recv")
	}
	ib.Push(&wire.Packet{Seq: 2})
	if p := ib.Recv(time.Minute, done); p == nil || p.Seq != 2 {
		t.Fatalf("Recv after close must still drain the queue, got %+v", p)
	}
	if p := ib.Recv(time.Minute, done); p != nil {
		t.Fatalf("Recv on a closed, drained inbox returned %+v", p)
	}
}

// TestInboxSteadyStateAllocs pins the recycling discipline: once the
// backing array has grown to the working depth, push/pop cycles — single
// pushes, runs, batched drains and a Recv that finds its packet queued —
// allocate nothing.
func TestInboxSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ib := fabric.NewInbox()
	done := make(chan struct{})
	pkts := make([]*wire.Packet, 8)
	for i := range pkts {
		pkts[i] = &wire.Packet{Seq: uint64(i)}
	}
	into := make([]*wire.Packet, 4)
	cycle := func() {
		ib.Push(pkts[0])
		ib.PushRun(pkts[1:])
		for ib.PopRun(into) == len(into) {
		}
		ib.Push(pkts[0])
		if ib.Recv(time.Minute, done) != pkts[0] {
			t.Error("Recv lost the queued packet")
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("steady-state inbox cycle: %v allocs, want 0", got)
	}
}

// TestInboxRecvWakesEveryWaiter pins the lost-wake fix at its source: a
// run of two packets raises one notify edge, and the waiter that takes
// the first must pass the edge on so the second waiter takes the other.
func TestInboxRecvWakesEveryWaiter(t *testing.T) {
	ib := fabric.NewInbox()
	done := make(chan struct{})
	got := make(chan *wire.Packet, 2)
	for i := 0; i < 2; i++ {
		go func() { got <- ib.Recv(time.Minute, done) }()
	}
	time.Sleep(5 * time.Millisecond)
	ib.PushRun([]*wire.Packet{{Seq: 1}, {Seq: 2}})
	for i := 0; i < 2; i++ {
		select {
		case p := <-got:
			if p == nil {
				t.Fatalf("waiter %d woke empty-handed", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 2 waiters woke for a run of 2", i)
		}
	}
}
