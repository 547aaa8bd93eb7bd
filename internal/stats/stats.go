// Package stats provides the small statistics toolkit used by the benchmark
// harness: percentile, mean and trimmed-mean summaries over duration
// samples. The paper reports single µs numbers per
// configuration; we additionally report medians and spread because the
// simulated testbed runs on a shared host.
package stats

import (
	"math"
	"sort"
	"time"
)

// running accumulates streaming statistics with Welford's algorithm. No
// caller outside this package's tests streams samples any more (every
// harness keeps a Sample), so it is unexported.
type running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one sample.
func (r *running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the sample count.
func (r *running) N() int { return r.n }

// Mean returns the sample mean, 0 if empty.
func (r *running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance, 0 for fewer than 2 samples.
func (r *running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Min returns the smallest sample, 0 if empty.
func (r *running) Min() float64 { return r.min }

// Max returns the largest sample, 0 if empty.
func (r *running) Max() float64 { return r.max }

// Sample is a bounded collection of duration measurements.
type Sample struct {
	xs []time.Duration
}

// NewSample returns an empty sample with capacity hint n.
func NewSample(n int) *Sample { return &Sample{xs: make([]time.Duration, 0, n)} }

// Add appends one measurement.
func (s *Sample) Add(d time.Duration) { s.xs = append(s.xs, d) }

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.xs) }

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on a sorted copy. Empty samples return 0.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.xs) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(s.xs))
	copy(sorted, s.xs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Median returns the 50th percentile.
func (s *Sample) Median() time.Duration { return s.Percentile(50) }

// Mean returns the arithmetic mean, 0 if empty.
func (s *Sample) Mean() time.Duration {
	if len(s.xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range s.xs {
		sum += x
	}
	return sum / time.Duration(len(s.xs))
}

// TrimmedMean returns the mean after discarding the top and bottom frac
// (e.g. 0.1 trims 10% from each side). It is the harness's default
// estimator: robust to scheduler noise spikes on the shared host.
func (s *Sample) TrimmedMean(frac float64) time.Duration {
	if len(s.xs) == 0 {
		return 0
	}
	if frac < 0 || frac >= 0.5 {
		return s.Mean()
	}
	sorted := make([]time.Duration, len(s.xs))
	copy(sorted, s.xs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	k := int(float64(len(sorted)) * frac)
	kept := sorted[k : len(sorted)-k]
	if len(kept) == 0 {
		return s.Median()
	}
	var sum time.Duration
	for _, x := range kept {
		sum += x
	}
	return sum / time.Duration(len(kept))
}

// US converts a duration to float microseconds for table printing.
func US(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
