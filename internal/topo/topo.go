// Package topo models the hardware topology of a cluster node: sockets and
// cores, like the dual quad-core Xeon machines of the paper's testbed. The
// Marcel analog (internal/sched) uses the topology to enumerate its
// simulated cores.
package topo

import "fmt"

// CoreID identifies one core within a node, in [0, Machine.NumCores()).
type CoreID int

// Machine describes the topology of a single node.
type Machine struct {
	// Sockets is the number of CPU packages.
	Sockets int
	// CoresPerSocket is the number of cores in each package.
	CoresPerSocket int
}

// DualQuadXeon is the paper's testbed node: two quad-core 2.33 GHz Xeons.
func DualQuadXeon() Machine { return Machine{Sockets: 2, CoresPerSocket: 4} }

// Validate reports an error if the topology is degenerate.
func (m Machine) Validate() error {
	if m.Sockets <= 0 || m.CoresPerSocket <= 0 {
		return fmt.Errorf("topo: invalid machine %dx%d", m.Sockets, m.CoresPerSocket)
	}
	return nil
}

// NumCores returns the total number of cores.
func (m Machine) NumCores() int { return m.Sockets * m.CoresPerSocket }

// socket returns the socket that owns core c.
func (m Machine) socket(c CoreID) int {
	if !m.ValidCore(c) {
		panic(fmt.Sprintf("topo: core %d out of range on %v", c, m))
	}
	return int(c) / m.CoresPerSocket
}

// ValidCore reports whether c exists on the machine.
func (m Machine) ValidCore(c CoreID) bool {
	return c >= 0 && int(c) < m.NumCores()
}

// Cores enumerates every core ID.
func (m Machine) Cores() []CoreID {
	out := make([]CoreID, m.NumCores())
	for i := range out {
		out[i] = CoreID(i)
	}
	return out
}

// String implements fmt.Stringer.
func (m Machine) String() string {
	return fmt.Sprintf("%d sockets x %d cores", m.Sockets, m.CoresPerSocket)
}
