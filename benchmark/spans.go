package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

type spanKind uint8

const (
	spIter spanKind = iota
	spIsend
	spIrecv
	spWaitSend
	spWaitRecv
	spCompute
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"iteration", "Isend", "Irecv", "WaitSend", "WaitRecv", "Compute"}

// span is one timed call the generator made into mpi, or (spIter) the
// iteration that made it. iter identifies the iteration on its rank and
// so the parent of every call span; idx orders the calls within it.
type span struct {
	start, dur int64 // ns since run.start
	iter       uint32
	idx        uint16
	kind       spanKind
}

// tracer is one rank's preallocated span buffer. Once full it counts
// what it drops rather than grow inside the measured window.
type tracer struct {
	spans   []span
	dropped int
}

// spanCap bounds a rank's spans: 24 B each, 12 MiB per rank.
const spanCap = 1 << 19

func newTracer() *tracer { return &tracer{spans: make([]span, 0, spanCap)} }

func (t *tracer) add(s span) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// spanTrack is one rank's spans of one workload, placed on the common
// timeline of the process.
type spanTrack struct {
	workload string
	rank     int
	offset   int64 // ns from process start to run.start
	spans    []span
}

// fileSpans caps what one track contributes to the trace file; the
// per-layer metrics use every span recorded.
const fileSpans = 20000

// writeChromeTrace writes the tracks as Chrome trace-event JSON (complete
// "X" events), which Perfetto and chrome://tracing load: one process per
// (workload, rank), iterations with their calls nested beneath.
func writeChromeTrace(w io.Writer, tracks []spanTrack) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(ev map[string]any) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
		_, err = bw.Write(b)
		return err
	}
	for pid, tr := range tracks {
		if err := emit(map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]any{"name": fmt.Sprintf("%s rank %d", tr.workload, tr.rank)},
		}); err != nil {
			return err
		}
		spans := tr.spans
		if len(spans) > fileSpans {
			spans = spans[:fileSpans]
		}
		for _, s := range spans {
			args := map[string]any{"workload": tr.workload, "rank": tr.rank, "iteration": s.iter, "index": s.idx}
			if s.kind != spIter {
				args["parent"] = fmt.Sprintf("iteration %d", s.iter)
			}
			if err := emit(map[string]any{
				"name": spanNames[s.kind], "cat": tr.workload, "ph": "X",
				"ts": float64(tr.offset+s.start) / 1e3, "dur": float64(s.dur) / 1e3,
				"pid": pid, "tid": 0, "args": args,
			}); err != nil {
				return err
			}
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
