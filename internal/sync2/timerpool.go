package sync2

import (
	"sync"
	"time"
)

// timerPool recycles time.Timers for the blocking-receive paths: every
// timed wait used to allocate a fresh timer (two objects), a steady
// churn on exactly the paths the zero-allocation work removed churn
// from everywhere else.
var timerPool sync.Pool

// GetTimer returns a timer armed with d, drawn from the pool when one
// is available. Pair it with PutTimer.
func GetTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// PutTimer stops t, drains a pending fire, and pools it for reuse.
// fired reports whether the caller consumed a tick from t.C itself;
// the distinction matters because under the pre-Go-1.23 timer
// semantics go.mod currently pins, a fire can still be in flight when
// Stop returns false, and a non-blocking drain would miss it —
// poisoning the pooled timer with a stale tick that makes its next
// user time out instantly. When the caller did not consume the tick
// and Stop reports the timer already fired, the drain waits for it;
// the wait is bounded rather than open-ended because under Go ≥1.23
// semantics Stop guarantees the
// tick will never arrive, and a bare receive would deadlock — the
// bound turns that into a bounded stall on an already-rare race path,
// and the drain itself becomes unnecessary there (Reset flushes). Those
// semantics follow the go line of the program's main module, not of this
// one: nmperf's main module is benchmark/go.mod, so the drain can go only
// once both go.mod files say go 1.23. The caller must own t exclusively
// and not touch it afterwards.
func PutTimer(t *time.Timer, fired bool) {
	if !t.Stop() && !fired {
		guard := time.NewTimer(10 * time.Millisecond)
		select {
		case <-t.C:
		case <-guard.C:
		}
		guard.Stop()
	}
	timerPool.Put(t)
}
