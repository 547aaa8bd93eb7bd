package topo

import (
	"testing"
	"testing/quick"
)

func TestDualQuadXeon(t *testing.T) {
	m := DualQuadXeon()
	if m.NumCores() != 8 {
		t.Fatalf("NumCores = %d, want 8", m.NumCores())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Machine{{0, 4}, {2, 0}, {-1, 4}, {2, -2}}
	for _, m := range bad {
		if m.Validate() == nil {
			t.Errorf("Validate(%v) = nil, want error", m)
		}
	}
}

func TestSocketAssignment(t *testing.T) {
	m := DualQuadXeon()
	for c := 0; c < 4; c++ {
		if m.socket(CoreID(c)) != 0 {
			t.Errorf("core %d on socket %d, want 0", c, m.socket(CoreID(c)))
		}
	}
	for c := 4; c < 8; c++ {
		if m.socket(CoreID(c)) != 1 {
			t.Errorf("core %d on socket %d, want 1", c, m.socket(CoreID(c)))
		}
	}
}

func TestSocketOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DualQuadXeon().socket(8)
}

func TestCoresEnumeration(t *testing.T) {
	m := Machine{Sockets: 3, CoresPerSocket: 2}
	cores := m.Cores()
	if len(cores) != 6 {
		t.Fatalf("len(Cores) = %d, want 6", len(cores))
	}
	for i, c := range cores {
		if int(c) != i {
			t.Fatalf("Cores()[%d] = %d", i, c)
		}
	}
}

// Properties over arbitrary (small) machines: the cores enumerate
// densely and every socket owns exactly CoresPerSocket of them.
func TestTopologyProperties(t *testing.T) {
	f := func(s, c uint8) bool {
		m := Machine{Sockets: int(s%4) + 1, CoresPerSocket: int(c%8) + 1}
		perSocket := make([]int, m.Sockets)
		for i, core := range m.Cores() {
			if int(core) != i || !m.ValidCore(core) {
				return false
			}
			perSocket[m.socket(core)]++
		}
		for _, n := range perSocket {
			if n != m.CoresPerSocket {
				return false
			}
		}
		return !m.ValidCore(CoreID(m.NumCores()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
