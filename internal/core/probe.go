package core

import (
	"time"

	"pioman/internal/piom"
	"pioman/internal/sched"
)

// AnyTag matches receives and probes against any tag.
const AnyTag = -1 << 30

// ProbeInfo describes a matched but not yet received message.
type ProbeInfo struct {
	Src int
	Tag int
	Len int
	// Rendezvous reports whether the pending message is a rendezvous
	// announcement (its payload has not crossed the wire yet).
	Rendezvous bool
}

// Iprobe checks, without receiving, whether a message matching (src, tag)
// is pending in the unexpected pool. src may be AnySource and tag AnyTag.
// Like MPI_Iprobe it does not guarantee absence — a message may be in
// flight — but a true result is stable: the message stays queued until a
// matching Irecv consumes it.
func (e *Engine) Iprobe(src, tag int) (ProbeInfo, bool) {
	if e.cfg.Mode == Sequential {
		e.biglock.Lock()
		defer e.biglock.Unlock()
		// Probing is a library call, so the baseline also makes one
		// bounded progress step here.
		e.progress(-1, true)
	}
	e.qlock.Lock()
	defer e.qlock.Unlock()
	for _, u := range e.unexpected {
		if (src == AnySource || u.src == src) && (tag == AnyTag || u.tag == tag) {
			info := ProbeInfo{Src: u.src, Tag: u.tag, Len: len(u.payload), Rendezvous: u.isRTS}
			if u.isRTS {
				info.Len = u.msgLen
			}
			return info, true
		}
	}
	return ProbeInfo{}, false
}

// pollStep makes one progress step appropriate to the engine mode and
// periodically yields the thread's core so that polling loops never starve
// sibling threads on a fully-loaded node. It returns the refreshed yield
// deadline.
func (e *Engine) pollStep(th *sched.Thread, yieldAt time.Time) time.Time {
	if e.cfg.Mode == Sequential || e.srv == nil {
		e.biglock.Lock()
		e.progress(th.Core(), true)
		e.biglock.Unlock()
	} else {
		e.pollUncounted(th.Core())
	}
	if time.Now().After(yieldAt) {
		th.Yield()
		return time.Now().Add(sequentialYieldQuantum)
	}
	return yieldAt
}

// Probe blocks the calling thread until a matching message is pending and
// returns its description.
func (e *Engine) Probe(src, tag int, th *sched.Thread) ProbeInfo {
	yieldAt := time.Now().Add(sequentialYieldQuantum)
	for {
		if info, ok := e.Iprobe(src, tag); ok {
			return info
		}
		yieldAt = e.pollStep(th, yieldAt)
	}
}

// WaitAny blocks until at least one of reqs completes and returns the
// index of a completed request. It panics on an empty set.
func (e *Engine) WaitAny(th *sched.Thread, reqs ...*piom.Request) int {
	if len(reqs) == 0 {
		panic("core: WaitAny on empty request set")
	}
	yieldAt := time.Now().Add(sequentialYieldQuantum)
	for {
		for i, r := range reqs {
			if r.Completed() {
				return i
			}
		}
		yieldAt = e.pollStep(th, yieldAt)
	}
}

// WaitAllTimeout waits for every request or gives up after d; it reports
// whether all completed. Useful for failure-injection tests and watchdogs.
func (e *Engine) WaitAllTimeout(th *sched.Thread, d time.Duration, reqs ...*piom.Request) bool {
	deadline := time.Now().Add(d)
	yieldAt := time.Now().Add(sequentialYieldQuantum)
	for _, r := range reqs {
		for !r.Completed() {
			if time.Now().After(deadline) {
				return false
			}
			yieldAt = e.pollStep(th, yieldAt)
		}
	}
	return true
}
