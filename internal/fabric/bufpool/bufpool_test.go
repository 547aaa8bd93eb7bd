package bufpool

import (
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, 0}, {1, 0}, {512, 0},
		{513, 1}, {1024, 1},
		{1025, 2},
		{4 << 10, 3},
		{(4 << 10) + 1, 4},
		{1 << 20, 11},
		{MaxPooled, numClasses - 1},
		{MaxPooled + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetLenAndClassCap(t *testing.T) {
	for _, n := range []int{0, 1, 100, 512, 513, 4096, 5000, 1 << 20} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) has len %d", n, len(b))
		}
		if want := classSize(classFor(n)); cap(b) != want {
			t.Fatalf("Get(%d) has cap %d, want class cap %d", n, cap(b), want)
		}
	}
}

func TestOversizedFallsBack(t *testing.T) {
	n := MaxPooled + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("oversized Get has len %d", len(b))
	}
	Put(b) // must be silently dropped, not pooled under a wrong class
}

func TestRecycleRoundTrip(t *testing.T) {
	b := Get(4096)
	for i := range b {
		b[i] = 0xAB
	}
	Put(b)
	// The next same-class Get may or may not return the same memory
	// (sync.Pool gives no guarantee), but it must be class-capacity and
	// independent of the old length.
	c := Get(100)
	if cap(c) != classSize(classFor(100)) {
		t.Fatalf("recycled Get has cap %d", cap(c))
	}
}

func TestForeignCapacityDropped(t *testing.T) {
	// A slice whose capacity is not exactly a class size must never be
	// pooled: a later Get would hand out a buffer violating the class
	// capacity invariant.
	Put(make([]byte, 300, 300))
	b := Get(300)
	if cap(b) != classSize(0) {
		t.Fatalf("foreign capacity leaked into the pool: cap %d", cap(b))
	}
}

// TestGetPutAllocFree pins the reason the pool stores raw pointers: a
// steady-state Get/Put cycle performs zero allocations.
func TestGetPutAllocFree(t *testing.T) {
	// Warm the class so the measured loop never hits the pool's miss
	// path (which legitimately allocates the buffer itself).
	Put(Get(4096))
	allocs := testing.AllocsPerRun(100, func() {
		b := Get(4096)
		Put(b)
	})
	if allocs > 0 {
		t.Errorf("Get/Put cycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestCountersTrackTraffic checks the pool's telemetry counters move the
// right way for hit, miss, put and drop paths. Absolute values are
// deltas, since other tests (and parallel packages) share the global
// pool.
func TestCountersTrackTraffic(t *testing.T) {
	before := Snapshot()
	Put(Get(4096)) // warm: one get (hit or miss) + one put
	Put(Get(4096)) // usually a hit + put
	// Under -race, sync.Pool.Put drops one item in four at random, so no
	// single cycle is guaranteed to hit: repeat, bounded, until one does.
	for i := 0; i < 64 && Snapshot().Hits == before.Hits; i++ {
		Put(Get(4096))
	}
	Put(make([]byte, 300, 300))
	Get(MaxPooled + 1)
	after := Snapshot()
	if after.Hits <= before.Hits {
		t.Errorf("hits did not advance: %d -> %d", before.Hits, after.Hits)
	}
	if after.Puts < before.Puts+2 {
		t.Errorf("puts advanced %d, want >= 2", after.Puts-before.Puts)
	}
	if after.Drops != before.Drops+1 {
		t.Errorf("drops advanced %d, want 1", after.Drops-before.Drops)
	}
	if after.Misses < before.Misses+1 {
		t.Errorf("misses advanced %d, want >= 1 (oversized get)", after.Misses-before.Misses)
	}
}

func BenchmarkGetPut4K(b *testing.B) {
	Put(Get(4096))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Put(Get(4096))
	}
}
