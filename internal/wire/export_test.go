package wire

import "time"

// ArriveAt exposes the modeled arrival time.
func (p *Packet) ArriveAt() time.Time { return p.arriveAt }

// PendingAt reports whether any packet (arrived or in flight) is queued for
// node dst, and the arrival time of the earliest one.
func (f *Fabric) PendingAt(dst int) (time.Time, bool) {
	return f.inboxes[dst].earliest()
}
