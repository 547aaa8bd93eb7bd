package mpi

import (
	"fmt"

	"pioman/internal/fabric/bufpool"
	"pioman/internal/piom"
	"pioman/internal/telemetry"
)

// registerNodeMetrics registers the per-node sources the engine itself
// does not own — the PIOMan event server's counters — under
// "node<rank>.piom.*", plus the process-global buffer pool counters
// (once per registry: in-process worlds run several nodes over one pool,
// and the second registration would otherwise be a duplicate-name
// panic). The engine and rail registrations happen inside core.New.
func registerNodeMetrics(reg *telemetry.Registry, rank int, srv *piom.Server) {
	if !reg.Registered("process.bufpool.hits") {
		bufpool.RegisterMetrics(reg)
	}
	if srv == nil {
		return
	}
	p := fmt.Sprintf("node%d.piom", rank)
	reg.RegisterCounter(p+".polls", "event-server progress passes", func() uint64 { return srv.Stats().Polls })
	reg.RegisterCounter(p+".worked", "progress passes that did work", func() uint64 { return srv.Stats().Worked })
	reg.RegisterCounter(p+".blocking_wakeups", "parks of the blocking watcher that woke on an arriving frame", func() uint64 { return srv.Stats().BlockingWakeups })
}
