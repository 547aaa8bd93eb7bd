package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestRunningBasics(t *testing.T) {
	var r running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-9 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Population std of this classic set is 2; sample variance = 32/7.
	if math.Abs(r.Var()-32.0/7.0) > 1e-9 {
		t.Errorf("Var = %v, want %v", r.Var(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r running
	if r.Mean() != 0 || r.Var() != 0 {
		t.Fatal("empty Running should report zeros")
	}
	r.Add(3)
	if r.Var() != 0 {
		t.Fatalf("single-sample Var = %v, want 0", r.Var())
	}
	if r.Min() != 3 || r.Max() != 3 {
		t.Fatal("single-sample min/max wrong")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var r running
		var sum float64
		for _, v := range raw {
			r.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		if math.Abs(r.Mean()-mean) > 1e-6*(1+math.Abs(mean)) {
			return false
		}
		var ss float64
		for _, v := range raw {
			d := float64(v) - mean
			ss += d * d
		}
		if len(raw) > 1 {
			want := ss / float64(len(raw)-1)
			if math.Abs(r.Var()-want) > 1e-4*(1+want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSample(10)
	for i := 1; i <= 10; i++ {
		s.Add(time.Duration(i) * time.Microsecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Microsecond},
		{10, 1 * time.Microsecond},
		{50, 5 * time.Microsecond},
		{95, 10 * time.Microsecond},
		{100, 10 * time.Microsecond},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestEmptySample(t *testing.T) {
	s := NewSample(0)
	if s.Median() != 0 || s.Mean() != 0 || s.TrimmedMean(0.1) != 0 {
		t.Fatal("empty sample must report zeros")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	s := NewSample(3)
	s.Add(3 * time.Microsecond)
	s.Add(1 * time.Microsecond)
	s.Add(2 * time.Microsecond)
	_ = s.Median()
	if s.xs[0] != 3*time.Microsecond {
		t.Fatal("Percentile sorted the underlying sample in place")
	}
}

func TestTrimmedMeanRobustToOutlier(t *testing.T) {
	s := NewSample(21)
	for i := 0; i < 20; i++ {
		s.Add(10 * time.Microsecond)
	}
	s.Add(10 * time.Millisecond) // a wild scheduler spike
	tm := s.TrimmedMean(0.1)
	if tm > 12*time.Microsecond {
		t.Fatalf("TrimmedMean = %v, not robust to outlier", tm)
	}
	if m := s.Mean(); m < 100*time.Microsecond {
		t.Fatalf("sanity: plain Mean = %v should be polluted", m)
	}
}

func TestTrimmedMeanDegenerateFrac(t *testing.T) {
	s := NewSample(2)
	s.Add(time.Microsecond)
	s.Add(3 * time.Microsecond)
	if got := s.TrimmedMean(0.9); got != 2*time.Microsecond {
		t.Fatalf("TrimmedMean(0.9) = %v, want plain mean 2µs", got)
	}
	if got := s.TrimmedMean(-1); got != 2*time.Microsecond {
		t.Fatalf("TrimmedMean(-1) = %v, want plain mean 2µs", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(50) + 1
		s := NewSample(n)
		for i := 0; i < n; i++ {
			s.Add(time.Duration(rng.Intn(1000)) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				t.Fatalf("percentile not monotone: P%v=%v < prev %v", p, v, prev)
			}
			if v < s.Percentile(0) || v > s.Percentile(100) {
				t.Fatalf("P%v=%v outside [min,max]", p, v)
			}
			prev = v
		}
	}
}

func TestUS(t *testing.T) {
	if US(1500*time.Nanosecond) != 1.5 {
		t.Fatalf("US = %v, want 1.5", US(1500*time.Nanosecond))
	}
}
