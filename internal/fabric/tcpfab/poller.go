package tcpfab

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/wire"
)

// readBudgetBytes bounds how much one connection may pull off its
// socket per poller visit, so a firehose peer cannot starve the
// endpoint's other connections. Level-triggered epoll re-reports the
// remaining data on the next wait.
const readBudgetBytes = 256 << 10

// spinPasses is how many consecutive empty non-blocking poll passes a
// poller tolerates before it parks. Parking is cheap to hold — the
// goroutine waits in the Go netpoller on the nested epoll fd and owns no
// P (see park) — but waking from it is a netpoll round trip, slow while
// every P is busy, which would land on every leg of a ping-pong
// exchange. Spinning through the hot phase (with a Gosched per pass so
// producers and receivers run interleaved) keeps the poller reactive at
// syscall latency; once traffic truly pauses, the poller parks and costs
// nothing.
const spinPasses = 96

// napFirst and napCount shape the timed naps that open a quiet phase. A
// parked poller is woken by the Go netpoller, which the scheduler only
// consults once a P runs out of runnable goroutines (or from sysmon,
// every 10 ms). While every P stays busy — at GOMAXPROCS=1 one waiter
// yielding in a loop, or another poller spinning, is enough — a frame
// landing on a parked poller's socket waits for that, and so does the
// whole conversation, whose next frame cannot be sent before this one
// is read. A timer, unlike the netpoller, fires on any scheduling pass.
// So the first napCount parks after a spin phase carry a deadline,
// doubling from napFirst: a reply that lands just after the poller
// parked is read within one nap however busy the Ps are, and after
// ~10 ms, where sysmon's netpoll takes over, the poller parks untimed.
const (
	napFirst = 20 * time.Microsecond
	napCount = 10
)

// spinPollerMax disables spinning entirely once the process carries
// more live pollers than this. Spinning buys single-digit-µs latency
// for the handful of streams a real rank converses over; with hundreds
// of in-process endpoints (the storm bench, many-peer tests) spinning
// pollers would stuff the scheduler run queue with empty poll passes
// and collapse throughput, so everyone parks between events, which
// scales to any count.
const spinPollerMax = 8

// livePollers counts running poller goroutines process-wide (see
// spinPollerMax).
var livePollers atomic.Int32

// wakeByte is the pipe token for wakeLocked. Package-level so the
// slice header passed to syscall.Write never escapes per call.
var wakeByte = []byte{1}

// poller is an Endpoint's one event-loop goroutine: it owns one epoll
// instance and every connection of the endpoint. It starts lazily, so an
// endpoint that never carries a connection costs zero goroutines. All fd
// lifecycle for the connections happens on the poller goroutine, and so
// does every stream failure. Other goroutines touch the sockets only
// under a stream's locks — a producer's inline flush under iomu, a
// polling thread's read under rmu — and otherwise communicate through
// the mu-guarded mailboxes below plus the wake pipe.
type poller struct {
	e     *Endpoint
	epfd  int
	wakeR int
	wakeW int
	// epf wraps epfd for the Go netpoller (nested epoll): park waits for
	// epfd to turn readable through epc instead of in a raw blocking
	// epoll_wait, which would hold a P until sysmon retook it. epf owns
	// the descriptor; teardownAll closes it.
	epf *os.File
	epc syscall.RawConn
	// parkFn is the epc.Read callback, built once in start: declared
	// inside loop it would heap-allocate its captures on every pass. It
	// harvests events non-blockingly into events and leaves the result
	// in parkN/parkErr.
	parkFn  func(fd uintptr) bool
	parkN   int
	parkErr error
	events  []syscall.EpollEvent

	mu       sync.Mutex
	running  bool
	shutdown bool
	woken    bool    // a wake byte is already in the pipe
	spinning bool    // poller is in non-blocking passes; mailboxes need no wake byte
	mail     mailbox // producer requests not yet taken by the loop

	// flushedInline is set by a producer whose inline flush drained its
	// stream: work the loop never saw, and a sign the stream is in
	// conversation with its reply due on this poller. The loop counts
	// it as a worked pass, so the spin phase covers the reply instead
	// of parking just before it lands — waking a parked poller is a
	// netpoll round trip, slow while every P is busy.
	flushedInline atomic.Bool

	// Poller-goroutine state (no lock). taken is the mailbox the loop is
	// working through; it swaps places with mail once per pass, so both
	// keep their backing arrays. resume and resumeSpare are the same
	// double buffer for flush fairness carry-over.
	taken       mailbox
	conns       map[int]*conn // fd -> conn, added only
	resume      []*conn       // flush fairness carry-over to the next loop pass
	resumeSpare []*conn
}

// mailbox holds the requests producers leave for a poller.
type mailbox struct {
	pending []*conn // awaiting EPOLL_CTL_ADD
	kicked  []*conn // have newly queued frames to flush
	kills   []*conn // KillConn targets and thread-seen read failures: shutdown(2) the socket
}

func (m *mailbox) empty() bool {
	return len(m.pending)+len(m.kicked)+len(m.kills) == 0
}

// reset empties m for reuse, nil-ing the handled entries so a mailbox
// does not keep torn-down conns alive.
func (m *mailbox) reset() {
	clear(m.pending)
	clear(m.kicked)
	clear(m.kills)
	m.pending, m.kicked, m.kills = m.pending[:0], m.kicked[:0], m.kills[:0]
}

// start creates the epoll instance, wake pipe, and loop goroutine on
// first use. Caller holds the Endpoint mutex (so the wg.Add is ordered
// before any Close-side Wait).
func (pl *poller) start() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.running {
		return nil
	}
	if pl.shutdown {
		return fabric.ErrClosed
	}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return fmt.Errorf("tcpfab: epoll_create1: %w", err)
	}
	// O_NONBLOCK means nothing to an epoll descriptor itself; it is what
	// makes os.NewFile register the descriptor with the netpoller. NewFile
	// swallows a refused registration (as it would a failed SetNonblock
	// here), so probe it: only a netpolled file accepts a deadline. epf
	// owns epfd from here on.
	_ = syscall.SetNonblock(epfd, true)
	epf := os.NewFile(uintptr(epfd), "tcpfab-epoll")
	epc, err := epf.SyscallConn()
	if err == nil {
		err = epf.SetReadDeadline(time.Time{})
	}
	if err != nil {
		epf.Close()
		return fmt.Errorf("tcpfab: netpoll the epoll fd: %w", err)
	}
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		epf.Close()
		return fmt.Errorf("tcpfab: wake pipe: %w", err)
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(fds[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, fds[0], &ev); err != nil {
		epf.Close()
		syscall.Close(fds[0])
		syscall.Close(fds[1])
		return fmt.Errorf("tcpfab: arm wake pipe: %w", err)
	}
	pl.epf, pl.epc = epf, epc
	pl.events = make([]syscall.EpollEvent, 128)
	pl.parkFn = func(fd uintptr) bool {
		pl.parkN, pl.parkErr = syscall.EpollWait(int(fd), pl.events, 0)
		return pl.parkN != 0 || pl.parkErr != nil
	}
	pl.epfd, pl.wakeR, pl.wakeW = epfd, fds[0], fds[1]
	pl.conns = make(map[int]*conn)
	pl.running = true
	pl.spinning = true // the loop starts in its non-blocking phase
	livePollers.Add(1)
	pl.e.nPollers.Add(1)
	pl.e.wg.Add(1)
	go pl.loop()
	return nil
}

// stop asks the poller to tear down its connections and exit. A poller
// that never started just flips its shutdown flag so a late register
// fails cleanly.
func (pl *poller) stop() {
	pl.mu.Lock()
	pl.shutdown = true
	if pl.running && !pl.woken {
		pl.woken = true
		syscall.Write(pl.wakeW, wakeByte)
	}
	pl.mu.Unlock()
}

// register hands a freshly handshaken connection to the poller. The
// EPOLL_CTL_ADD happens on the poller goroutine so fd ownership never
// leaves it.
func (pl *poller) register(c *conn) error {
	pl.mu.Lock()
	if pl.shutdown || !pl.running {
		pl.mu.Unlock()
		return fabric.ErrClosed
	}
	pl.mail.pending = append(pl.mail.pending, c)
	pl.wakeLocked()
	pl.mu.Unlock()
	return nil
}

// kick tells the poller that c has newly queued frames. Callers arrive
// here at most once per armed-flag transition, so the mailbox cannot
// grow faster than the poller drains it.
func (pl *poller) kick(c *conn) {
	pl.mu.Lock()
	if !pl.shutdown && pl.running {
		pl.mail.kicked = append(pl.mail.kicked, c)
		pl.wakeLocked()
	}
	pl.mu.Unlock()
}

// kill requests a forced failure of c: a test hook, chaos injection,
// or a polling thread handing over a read failure it flagged in rerr.
// The poller owns the fd, so it performs the shutdown(2) itself —
// killing from another goroutine would race fd reuse — and the
// readiness that follows brings the stream to fail.
func (pl *poller) kill(c *conn) {
	pl.mu.Lock()
	if !pl.shutdown && pl.running {
		pl.mail.kills = append(pl.mail.kills, c)
		pl.wakeLocked()
	}
	pl.mu.Unlock()
}

func (pl *poller) wakeLocked() {
	if pl.woken || pl.spinning {
		// A spinning poller drains its mailboxes every pass without a
		// wake byte; the spin→block transition rechecks them under mu,
		// so skipping the pipe write here cannot lose the request.
		return
	}
	pl.woken = true
	syscall.Write(pl.wakeW, wakeByte)
}

// park is the quiet-phase wait: it returns once epfd has events (n of
// them, harvested into pl.events), the wake pipe among them, or wait has
// elapsed (n == 0; wait <= 0 means no limit). The goroutine sleeps in the
// Go netpoller, which watches epfd like any socket, so it holds no P
// while parked.
func (pl *poller) park(wait time.Duration) (int, error) {
	var deadline time.Time
	if wait > 0 {
		deadline = time.Now().Add(wait)
	}
	pl.epf.SetReadDeadline(deadline)
	pl.parkN, pl.parkErr = 0, nil
	err := pl.epc.Read(pl.parkFn)
	if err == nil {
		err = pl.parkErr
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		err = nil
	}
	return pl.parkN, err
}

// loop is the event loop: wait, absorb mailboxes, flush writers, drain
// readers. While traffic is hot the wait is non-blocking (see
// spinPasses); only after a quiet stretch does the poller park.
func (pl *poller) loop() {
	e := pl.e
	defer e.wg.Done()
	events := pl.events
	var drain [64]byte
	var run []*wire.Packet
	idle := 0
	naps := 0 // parks since the last worked pass
	for {
		spin := idle < spinPasses && livePollers.Load() <= spinPollerMax
		park := false
		if !spin && len(pl.resume) == 0 {
			// Spin→park transition: producers that saw us spinning
			// skipped the wake byte, so recheck the mailboxes under the
			// same lock before sleeping. Anything that lands after the
			// flag flips writes the pipe and wakes us.
			pl.mu.Lock()
			pl.spinning = false
			if !pl.mail.empty() || pl.shutdown {
				pl.spinning = true
			} else {
				park = true
			}
			pl.mu.Unlock()
		}
		var n int
		var err error
		if park {
			if naps == 0 {
				e.parks.Add(1)
			}
			var wait time.Duration
			if naps < napCount && livePollers.Load() <= spinPollerMax {
				wait = napFirst << naps
			}
			naps++
			n, err = pl.park(wait)
		} else {
			n, err = syscall.EpollWait(pl.epfd, events, 0)
		}
		if err != nil && err != syscall.EINTR {
			// Only possible with a broken epfd; treat as shutdown.
			pl.mu.Lock()
			pl.shutdown = true
			pl.mu.Unlock()
		}

		pl.mu.Lock()
		if !pl.spinning {
			pl.spinning = true
		}
		pl.mail, pl.taken = pl.taken, pl.mail
		shutdown := pl.shutdown
		if pl.woken {
			for {
				k, rerr := syscall.Read(pl.wakeR, drain[:])
				if rerr != nil || k < len(drain) {
					break
				}
			}
			pl.woken = false
		}
		pl.mu.Unlock()

		box := &pl.taken
		if shutdown {
			pl.teardownAll(box.pending)
			return
		}
		worked := n > 0 || !box.empty() || len(pl.resume) > 0 ||
			(pl.flushedInline.Load() && pl.flushedInline.Swap(false))
		for _, c := range box.pending {
			pl.add(c)
		}
		for _, c := range box.kills {
			if !c.gone {
				syscall.Shutdown(c.fd, syscall.SHUT_RDWR)
			}
		}
		resume := pl.resume
		pl.resume = pl.resumeSpare
		for _, c := range resume {
			if !c.gone {
				pl.flush(c)
			}
		}
		clear(resume)
		pl.resumeSpare = resume[:0]
		for _, c := range box.kicked {
			if c.added && !c.gone {
				pl.flush(c)
			}
		}
		box.reset()
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			if fd == pl.wakeR {
				continue
			}
			c := pl.conns[fd]
			if c == nil || c.gone {
				continue
			}
			evs := events[i].Events
			if evs&syscall.EPOLLOUT != 0 {
				pl.flush(c)
			}
			if c.gone {
				continue
			}
			if evs&(syscall.EPOLLIN|syscall.EPOLLERR|syscall.EPOLLHUP) != 0 {
				run = pl.read(c, run)
			}
		}
		if worked {
			idle, naps = 0, 0
		} else {
			idle++
		}
		if spin {
			// After a delivering pass, the notified receivers sit in the
			// scheduler's runnext slot — yielding hands them the CPU now
			// instead of making them wait out another empty poll pass.
			// On an empty pass the yield is what makes spinning fair.
			runtime.Gosched()
		}
	}
}

// add performs the deferred EPOLL_CTL_ADD and, if frames queued while
// the connection waited in the mailbox, the initial flush.
func (pl *poller) add(c *conn) {
	if c.gone {
		return
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(c.fd)}
	if err := syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_ADD, c.fd, &ev); err != nil {
		// Treat exactly like a stream failure: queued frames move to
		// the stash and the next Send redials.
		c.added = false
		pl.fail(c)
		return
	}
	c.added = true
	pl.conns[c.fd] = c
	c.qmu.Lock()
	armed := c.armed
	c.qmu.Unlock()
	if armed {
		pl.flush(c)
	}
}

// flush drives c's outbound frames to the socket via flushOnce (shared
// with producer inline flushes) and applies the poller-only outcomes:
// EPOLLOUT arming, resume-list fairness parking (so one connection with
// a deep queue cannot monopolize the pass), and stream failure.
func (pl *poller) flush(c *conn) {
	c.iomu.Lock()
	if c.ioErr || c.ioDead {
		c.iomu.Unlock()
		pl.fail(c)
		return
	}
	st := c.flushOnce()
	if st == flushFailed {
		c.ioErr = true
	}
	c.iomu.Unlock()
	switch st {
	case flushDone:
		pl.wantWrite(c, false)
	case flushMore:
		pl.resume = append(pl.resume, c)
	case flushBlocked:
		pl.wantWrite(c, true)
	case flushFailed:
		pl.fail(c)
	}
}

// wantWrite arms or disarms EPOLLOUT for c.
func (pl *poller) wantWrite(c *conn, on bool) {
	if c.gone || !c.added || c.wantW == on {
		return
	}
	c.wantW = on
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(c.fd)}
	if on {
		ev.Events |= syscall.EPOLLOUT
	}
	syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_MOD, c.fd, &ev)
}

// read is the poller's turn on c's read half. A busy lock means a
// thread is reading the stream in PollBatch: the poller skips it, and
// level-triggered epoll reports whatever the thread leaves. The run is
// pushed while the lock is still held, so a thread that takes the lock
// next finds it in the inbox ahead of what it reads itself: per-stream
// FIFO across both readers. run is a reusable delivery batch.
func (pl *poller) read(c *conn, run []*wire.Packet) []*wire.Packet {
	if !c.rmu.TryLock() {
		return run
	}
	run, ok := c.read(run[:0])
	if len(run) > 0 {
		pl.e.inbox.PushRun(run)
		clear(run)
	}
	c.rmu.Unlock()
	if !ok {
		pl.fail(c)
	}
	return run[:0]
}

// fail handles a stream death. Frames whose bytes fully reached the
// kernel before the error may or may not have arrived — they count as
// lost (LostFrames is an upper bound). The straddler and everything
// behind it never left, so they are salvaged for replay on the redialed
// stream, exactly like the old writeLoop split.
func (pl *poller) fail(c *conn) {
	if c.gone {
		return
	}
	// Salvage under iomu: a producer inline flush may be advancing woff
	// right now, and marking ioDead in the same critical section
	// guarantees no byte of the salvaged residue can still reach the
	// socket afterwards (which would duplicate it on replay).
	c.iomu.Lock()
	c.ioDead = true
	lostN := 0
	for lostN < len(c.wends) && c.wends[lostN] <= c.woff {
		lostN++
	}
	var sal stash
	if lostN < len(c.wends) {
		start := 0
		if lostN > 0 {
			start = c.wends[lostN-1]
		}
		sal.buf = c.wbuf[start:]
		sal.ends = make([]int, 0, len(c.wends)-lostN)
		for _, end := range c.wends[lostN:] {
			sal.ends = append(sal.ends, end-start)
		}
	}
	c.wbuf, c.wends, c.woff = nil, nil, 0
	c.iomu.Unlock()
	if lostN > 0 {
		c.e.lost.Add(uint64(lostN))
	}
	pl.teardown(c, sal)
}

// teardown removes c from the poller and the endpoint, banks the
// salvage + surrendered queue in the stash, and redials in the
// background when frames are waiting (unless the endpoint is closing).
func (pl *poller) teardown(c *conn, sal stash) {
	if c.gone {
		return
	}
	c.gone = true
	if c.added {
		syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_DEL, c.fd, nil)
		delete(pl.conns, c.fd)
	}
	c.killRead()
	// ioDead under iomu fences out producer inline flushes for good
	// before the fd is released below (fail already set it when there
	// was residue to salvage).
	c.iomu.Lock()
	c.ioDead = true
	c.wbuf, c.wends, c.woff = nil, nil, 0
	c.iomu.Unlock()
	tail := c.killQueue()
	e := c.e
	redial := false
	e.mu.Lock()
	if e.out[c.rank] == c {
		delete(e.out, c.rank)
	}
	delete(e.conns, c)
	e.publishConnsLocked()
	if stranded := len(sal.ends) + len(tail.ends); stranded > 0 {
		if e.closed() {
			// Close's stash sweep may already have run; count the
			// stranded frames as lost directly.
			e.lost.Add(uint64(stranded))
		} else {
			var merged stash
			appendFrames(&merged, sal)
			appendFrames(&merged, e.stash[c.rank])
			appendFrames(&merged, tail)
			e.stash[c.rank] = merged
			redial = true
			e.wg.Add(1)
		}
	}
	e.mu.Unlock()
	c.f.Close()
	e.nConns.Add(-1)
	if redial {
		go func() {
			defer e.wg.Done()
			e.connTo(c.rank)
		}()
	}
}

// teardownAll fails every connection the poller still owns (including
// ones parked in the pending mailbox) and releases the epoll + wake
// fds. Runs once, as the poller's last act.
func (pl *poller) teardownAll(pending []*conn) {
	all := make([]*conn, 0, len(pl.conns)+len(pending))
	for _, c := range pl.conns {
		all = append(all, c)
	}
	all = append(all, pending...)
	for _, c := range all {
		pl.fail(c)
	}
	pl.epf.Close()
	syscall.Close(pl.wakeR)
	syscall.Close(pl.wakeW)
	livePollers.Add(-1)
	pl.mu.Lock()
	pl.running = false
	pl.mu.Unlock()
	pl.e.nPollers.Add(-1)
}
