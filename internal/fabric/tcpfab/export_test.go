package tcpfab

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
