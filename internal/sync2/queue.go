package sync2

// Notify raises the wake-up edge of a queue whose blocked consumers
// select on ch (capacity 1), without blocking: one pending edge is
// enough, whoever consumes it re-checks the queue.
func Notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// CompactQueue reclaims the consumed prefix of a head-indexed FIFO —
// the queue shape the transports' inboxes and the optimizer's waiting
// lists share: push appends, pop nils q[head] and advances head, and
// the slice resets only when the queue fully drains. Under sustained
// backlog that reset never fires and the dead prefix would otherwise
// ride along through every append-reallocation, growing memory with
// total throughput instead of live depth. Call it before appending
// (under the queue's lock); it slides the live tail down once the dead
// prefix dominates, clearing the vacated slots so no pointer outlives
// its pop. Returns the (possibly rebased) slice and head.
func CompactQueue[T any](q []T, head int) ([]T, int) {
	if head == 0 || head < len(q)-head || head < 32 {
		return q, head
	}
	n := copy(q, q[head:])
	var zero T
	for i := n; i < len(q); i++ {
		q[i] = zero
	}
	return q[:n], 0
}

// PushRun appends a whole run to a head-indexed FIFO after reclaiming
// its consumed prefix, under the caller's lock — the producer half of
// the batched run discipline, shared by the transports' inboxes. It
// returns the (possibly rebased) slice and head.
func PushRun[T any](q []T, head int, run []T) ([]T, int) {
	q, head = CompactQueue(q, head)
	return append(q, run...), head
}

// PopRun pops up to len(into) entries off a head-indexed FIFO into the
// prefix of into, under the caller's lock — the batched counterpart of
// the per-entry pop, shared by the transports' inboxes so the run
// discipline (clear every vacated slot, reset the slice on full drain)
// lives in one place. It returns the (possibly reset) slice, the new
// head, and how many entries it wrote.
func PopRun[T any](q []T, head int, into []T) ([]T, int, int) {
	n := 0
	var zero T
	for n < len(into) && head < len(q) {
		into[n] = q[head]
		q[head] = zero // the consumers own them now; drop the aliases
		head++
		n++
	}
	if head == len(q) {
		q, head = q[:0], 0
	}
	return q, head, n
}
