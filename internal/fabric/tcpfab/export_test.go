package tcpfab

import "time"

// InlineGap is the send gap above which a Send flushes its own frame.
const InlineGap = inlineGapNanos * time.Nanosecond

// KillConn forcibly fails the established stream toward rank, if one
// exists, and reports whether it did. It simulates an abrupt connection
// failure (peer crash, cable pull) for tests: the poller shutdown(2)s
// the socket and discovers the dead stream through its normal event
// path, so the salvage, stash, and redial machinery runs its production
// course.
func (e *Endpoint) KillConn(rank int) bool {
	e.mu.Lock()
	c := e.out[rank]
	e.mu.Unlock()
	if c == nil {
		return false
	}
	e.pl.kill(c)
	return true
}

// OpenConns reports how many registered streams the endpoint currently
// holds (send paths plus simultaneous-connect losers kept for reading).
func (e *Endpoint) OpenConns() int { return int(e.nConns.Load()) }

// PollersParked reports whether e's poller, if running, has left its
// non-blocking spin phase: parked in the netpoller, or on the few
// instructions between clearing the flag and getting there.
func (e *Endpoint) PollersParked() bool {
	e.pl.mu.Lock()
	defer e.pl.mu.Unlock()
	return !e.pl.running || !e.pl.spinning
}
