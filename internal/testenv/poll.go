package testenv

import "pioman/internal/wire"

// PollOne returns a poll function over src (a fabric.Endpoint or a
// nic.Driver): each call drains at most one packet through a reusable
// one-slot PollBatch buffer, or returns nil — for tests that step a
// transport one frame at a time. The buffer is allocated here, once, so
// the returned function allocates nothing; it is not safe for concurrent
// use.
func PollOne(src interface{ PollBatch([]*wire.Packet) int }) func() *wire.Packet {
	slot := make([]*wire.Packet, 1)
	return func() *wire.Packet {
		if src.PollBatch(slot) == 0 {
			return nil
		}
		p := slot[0]
		slot[0] = nil
		return p
	}
}
