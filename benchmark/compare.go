package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// noise estimates how far a median of m.Samples values can stray, from
// their own spread: the spread of a median shrinks with the square root
// of the sample count.
func noise(m metricValue) float64 {
	if m.Samples < 2 {
		return m.Spread
	}
	return m.Spread / math.Sqrt(float64(m.Samples))
}

// verdict judges B against A for one end-to-end metric on one workload.
// worsening is how much worse B is, as a share of A (negative: better).
// A row where either side's own noise exceeds the bound cannot tell a
// regression from that noise and is unresolved, never "same".
func verdict(d metricDecl, a, b metricValue) (worsening float64, v string) {
	if a.Value != 0 {
		worsening = (b.Value - a.Value) / a.Value
		if d.Better == "higher" {
			worsening = -worsening
		}
	}
	switch {
	case max(noise(a), noise(b)) > d.Bound:
		return worsening, "unresolved"
	case worsening > d.Bound:
		return worsening, "worse"
	case worsening < -d.Bound:
		return worsening, "better"
	}
	return worsening, "same"
}

// side is one side of a comparison: every result file a glob pattern
// matches. Several files (from -repeat) are several runs of the same code.
type side []*resultFile

func readSide(pattern string) (side, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pattern, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no such result file", pattern)
	}
	var s side
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, &f)
	}
	return s, nil
}

// metric returns the side's value of one end-to-end metric on one
// workload, and how many operations failed there. One file gives its own
// median and slice spread; several give the median of theirs and the
// spread between them, which unlike the slice spread also sees what
// changes from run to run.
func (s side) metric(workload, name string) (m metricValue, failed int64, ok bool) {
	var vals []float64
	for _, f := range s {
		for _, r := range f.Results {
			if v, has := r.Metrics[name]; has && r.Workload == workload && !r.Traced {
				m, failed = v, failed+r.Failed
				vals = append(vals, v.Value)
			}
		}
	}
	if len(vals) > 1 {
		unit := m.Unit
		m = summarize(vals)
		m.Unit = unit
	}
	return m, failed, len(vals) > 0
}

// compareFiles prints one row per (end-to-end metric, workload) present
// on both sides and returns the process exit code: 1 if any row is worse.
func compareFiles(patternA, patternB string) int {
	a, err := readSide(patternA)
	if err != nil {
		fatal(2, "%v", err)
	}
	b, err := readSide(patternB)
	if err != nil {
		fatal(2, "%v", err)
	}
	if fa, fb := a[0].Fingerprint, b[0].Fingerprint; fa != fb {
		fmt.Printf("fingerprints differ:\n  A %+v\n  B %+v\n", fa, fb)
	}
	fmt.Printf("A: %d result files, B: %d\n", len(a), len(b))
	fmt.Printf("%-20s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			ma, failedA, okA := a.metric(wl.name, d.Name)
			mb, failedB, okB := b.metric(wl.name, d.Name)
			if !okA || !okB {
				continue
			}
			worsening, v := verdict(d, ma, mb)
			if v == "worse" || failedB > failedA {
				v, code = "worse", 1
			}
			fmt.Printf("%-20s %-14s %14.4f %14.4f %+8.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, ma.Value, mb.Value, worsening*100, d.Bound*100, v)
		}
	}
	return code
}
