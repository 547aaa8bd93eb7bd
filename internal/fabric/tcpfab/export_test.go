package tcpfab

import "time"

// WithIdleTimeout returns cfg with idle reaping on: a connection quiet
// in both directions for idle is closed and redialed on the next Send.
func WithIdleTimeout(cfg Config, idle time.Duration) Config {
	cfg.idleTimeout = idle
	return cfg
}

// KillConn forcibly fails the established stream toward rank, if one
// exists, and reports whether it did. It simulates an abrupt connection
// failure (peer crash, cable pull) for tests: the owning poller
// shutdown(2)s the socket and discovers the dead stream through its
// normal event path, so the salvage, stash, and redial machinery runs
// its production course.
func (e *Endpoint) KillConn(rank int) bool {
	e.mu.Lock()
	c := e.out[rank]
	e.mu.Unlock()
	if c == nil {
		return false
	}
	c.pl.kill(c)
	return true
}

// OpenConns reports how many registered streams the endpoint currently
// holds (send paths plus simultaneous-connect losers kept for reading).
func (e *Endpoint) OpenConns() int { return int(e.nConns.Load()) }

// PollersParked reports whether every running poller of e has left its
// non-blocking spin phase: parked in the netpoller, or on the few
// instructions between clearing the flag and getting there.
func (e *Endpoint) PollersParked() bool {
	for _, pl := range e.pool.pollers {
		pl.mu.Lock()
		spinning := pl.running && pl.spinning
		pl.mu.Unlock()
		if spinning {
			return false
		}
	}
	return true
}
