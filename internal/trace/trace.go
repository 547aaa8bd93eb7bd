// Package trace is a low-overhead flight recorder for engine events. Each
// node owns a Recorder; engine components append fixed-size event records
// (timestamp, core, kind, request tag, size) under a spinlock into a ring
// buffer. The nmtrace command replays a recorded exchange as the annotated
// timeline of the paper's Fig. 1 (sequential vs event-driven submission).
package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pioman/internal/sync2"
)

// Kind enumerates traced engine events.
type Kind uint8

// Event kinds, following the lifecycle of Fig. 1: a request is registered
// by the application, submitted to the network (inline or by a tasklet on
// an idle core), travels the wire, and completes.
const (
	KindNone          Kind = iota
	KindRegister           // (a) request registration
	KindEventCreate        // (b) event creation (multithreaded mode)
	KindSubmit             // (b') network submission (copy + PIO/DMA)
	KindWireSend           // packet handed to the fabric
	KindWireRecv           // packet observed by the receive side
	KindRTS                // rendezvous request on the wire
	KindCTS                // rendezvous acknowledgement
	KindData               // rendezvous payload transfer
	KindMatch              // receive matched a posted request
	KindUnexpected         // eager data buffered as unexpected
	KindComplete           // (c) request completion detected
	KindWakeup             // waiting thread rescheduled
	KindPoll               // one polling pass of the event server
	KindOffload            // submission executed by an idle core
	KindBlockingCall       // fallback blocking syscall engaged
	KindRailProbation      // rail demoted: span submission failed
	KindRailReadmit        // probation rail's health probe answered
	KindDrop               // inbound frame refused; the note names why

	// kindCount sentinel: keep this last. The String exhaustiveness test
	// walks [0, kindCount) against kindNames, so adding a Kind above
	// without a name entry fails tests instead of printing "kind(16)".
	kindCount
)

var kindNames = map[Kind]string{
	KindNone:          "none",
	KindRegister:      "register",
	KindEventCreate:   "event-create",
	KindSubmit:        "submit",
	KindWireSend:      "wire-send",
	KindWireRecv:      "wire-recv",
	KindRTS:           "rts",
	KindCTS:           "cts",
	KindData:          "data",
	KindMatch:         "match",
	KindUnexpected:    "unexpected",
	KindComplete:      "complete",
	KindWakeup:        "wakeup",
	KindPoll:          "poll",
	KindOffload:       "offload",
	KindBlockingCall:  "blocking-call",
	KindRailProbation: "rail-probation",
	KindRailReadmit:   "rail-readmit",
	KindDrop:          "drop",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	At   time.Time
	Kind Kind
	Core int // core on which the event executed; -1 when unknown
	Tag  int // communication tag, -1 when not applicable
	Size int // payload size in bytes, 0 when not applicable
	Note string
}

// Recorder is a fixed-capacity ring of events. The zero Recorder is
// disabled: Record is a no-op, keeping the hot path free of branches on
// anything but one nil check.
type Recorder struct {
	mu   sync2.SpinLock
	ring []Event
	next int
	full bool
}

// NewRecorder returns a recorder holding up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Record appends one event. Safe for concurrent use; nil receivers are
// no-ops so components can hold an optional recorder.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	r.mu.Lock()
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Recordf is a convenience wrapper building the note with Sprintf.
func (r *Recorder) Recordf(k Kind, core, tag, size int, format string, args ...any) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: k, Core: core, Tag: tag, Size: size, Note: fmt.Sprintf(format, args...)})
}

// Events returns a copy of the recorded events in chronological order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Event
	if r.full {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring[:r.next]...)
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.ring)
	}
	return r.next
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next = 0
	r.full = false
	r.mu.Unlock()
}

// Dump writes a human-readable timeline to w, with timestamps relative to
// the first event.
func (r *Recorder) Dump(w io.Writer) {
	evs := r.Events()
	if len(evs) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	t0 := evs[0].At
	for _, e := range evs {
		rel := e.At.Sub(t0)
		core := "?"
		if e.Core >= 0 {
			core = fmt.Sprintf("%d", e.Core)
		}
		fmt.Fprintf(w, "%10.2fµs core=%-2s %-13s", float64(rel)/float64(time.Microsecond), core, e.Kind)
		if e.Tag >= 0 {
			fmt.Fprintf(w, " tag=%d", e.Tag)
		}
		if e.Size > 0 {
			fmt.Fprintf(w, " size=%d", e.Size)
		}
		if e.Note != "" {
			fmt.Fprintf(w, " %s", e.Note)
		}
		fmt.Fprintln(w)
	}
}
