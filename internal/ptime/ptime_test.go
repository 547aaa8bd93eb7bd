package ptime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSpinForZeroAndNegative(t *testing.T) {
	start := time.Now()
	SpinFor(0)
	SpinFor(-time.Millisecond)
	if el := time.Since(start); el > 5*time.Millisecond {
		t.Fatalf("SpinFor(<=0) took %v, want ~0", el)
	}
}

// TestSpinForDuration pins SpinFor's contract: it never returns early.
// The lower bound is exact on the monotonic clock; how late it returns is
// the host scheduler's business (a descheduled spinner overshoots by a
// time slice), so there is no ceiling to assert.
func TestSpinForDuration(t *testing.T) {
	for _, d := range []time.Duration{20 * time.Microsecond, 200 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		SpinFor(d)
		if el := time.Since(start); el < d {
			t.Errorf("SpinFor(%v) returned after %v, want >= %v", d, el, d)
		}
	}
}

func TestSpinUntilPast(t *testing.T) {
	start := time.Now()
	SpinUntil(start.Add(-time.Second))
	if el := time.Since(start); el > 5*time.Millisecond {
		t.Fatalf("SpinUntil(past) took %v, want ~0", el)
	}
}

func TestStopwatch(t *testing.T) {
	sw := NewStopwatch()
	SpinFor(100 * time.Microsecond)
	if e := sw.Elapsed(); e < 100*time.Microsecond {
		t.Fatalf("Elapsed = %v, want >= 100µs", e)
	}
	sw = NewStopwatch()
	if e := sw.Elapsed(); e > time.Millisecond {
		t.Fatalf("fresh stopwatch: Elapsed = %v, want ~0", e)
	}
}

func TestCopyCostLinear(t *testing.T) {
	c := DefaultCostModel()
	if got := c.CopyCost(2500); got != time.Microsecond {
		t.Errorf("CopyCost(2500) = %v, want 1µs", got)
	}
	if got := c.CopyCost(0); got != 0 {
		t.Errorf("CopyCost(0) = %v, want 0", got)
	}
	if got := c.CopyCost(-5); got != 0 {
		t.Errorf("CopyCost(-5) = %v, want 0", got)
	}
}

func TestPIOSlowerThanCopy(t *testing.T) {
	c := DefaultCostModel()
	for _, n := range []int{64, 128, 1024} {
		if c.PIOCost(n) <= c.CopyCost(n) {
			t.Errorf("PIOCost(%d)=%v should exceed CopyCost(%d)=%v", n, c.PIOCost(n), n, c.CopyCost(n))
		}
	}
}

func TestZeroRateCostModel(t *testing.T) {
	var c CostModel
	if c.CopyCost(1024) != 0 || c.PIOCost(1024) != 0 {
		t.Fatal("zero-rate cost model must report zero cost, not divide by zero")
	}
}

// Property: cost is monotone non-decreasing in size.
func TestCostMonotonicProperty(t *testing.T) {
	c := DefaultCostModel()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return c.CopyCost(x) <= c.CopyCost(y) && c.PIOCost(x) <= c.PIOCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cost of concatenation is (approximately) additive; allow 1ns
// rounding slack per term.
func TestCostAdditiveProperty(t *testing.T) {
	c := DefaultCostModel()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		sum := c.CopyCost(x) + c.CopyCost(y)
		whole := c.CopyCost(x + y)
		diff := sum - whole
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2*time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChargeCopyBurnsTime(t *testing.T) {
	c := DefaultCostModel()
	start := time.Now()
	c.ChargeCopy(250000) // 100µs at 2.5GB/s
	if el := time.Since(start); el < 100*time.Microsecond {
		t.Fatalf("ChargeCopy(250000) took %v, want >= 100µs", el)
	}
}

func TestVirtualChargesInsteadOfSpinning(t *testing.T) {
	SetVirtual(true)
	defer SetVirtual(false)
	start := time.Now()
	base := Charged()
	SpinFor(50 * time.Millisecond)
	SpinUntil(time.Now().Add(30 * time.Millisecond))
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Fatalf("virtual SpinFor burned %v of wall time, want ~0", el)
	}
	got := Charged() - base
	if got < 79*time.Millisecond || got > 81*time.Millisecond {
		t.Fatalf("Charged = %v, want ~80ms", got)
	}
}

func TestVirtualUncountedSuppressesCharges(t *testing.T) {
	SetVirtual(true)
	defer SetVirtual(false)
	base := Charged()
	Uncounted(func() {
		SpinFor(time.Second)
		Uncounted(func() { SpinFor(time.Second) }) // nesting holds
		SpinFor(time.Second)
	})
	if d := Charged() - base; d != 0 {
		t.Fatalf("Charged %v inside Uncounted, want 0", d)
	}
	SpinFor(time.Millisecond)
	if d := Charged() - base; d != time.Millisecond {
		t.Fatalf("Charged = %v after Uncounted returned, want 1ms", d)
	}
}

func TestVirtualStopwatchCountsOwnGoroutineOnly(t *testing.T) {
	SetVirtual(true)
	defer SetVirtual(false)
	sw := NewStopwatch()
	done := make(chan struct{})
	go func() {
		// Another goroutine's charge models an idle core doing the work
		// in parallel: it must not appear in this stopwatch.
		SpinFor(time.Second)
		close(done)
	}()
	<-done
	SpinFor(2 * time.Millisecond)
	el := sw.Elapsed()
	if el < 2*time.Millisecond {
		t.Fatalf("Elapsed = %v, want >= the 2ms charged here", el)
	}
	if el > 500*time.Millisecond {
		t.Fatalf("Elapsed = %v includes another goroutine's 1s charge", el)
	}
}

func TestSetVirtualOffRestoresSpinning(t *testing.T) {
	SetVirtual(true)
	SpinFor(time.Hour) // booked, not burned
	SetVirtual(false)
	if Charged() != 0 {
		t.Fatal("Charged nonzero after SetVirtual(false)")
	}
	start := time.Now()
	SpinFor(200 * time.Microsecond)
	if el := time.Since(start); el < 200*time.Microsecond {
		t.Fatalf("real SpinFor returned after %v, want >= 200µs", el)
	}
}
