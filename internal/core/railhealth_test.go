package core

import (
	"testing"
	"time"

	"pioman/internal/wire"
)

// TestStalePongDoesNotReadmit pins that rail health evidence is causal:
// the echo of a probe sent before the current demotion (a probation
// probe from an earlier demotion, answered late) crossed the rail while
// it still worked, so it must leave the rail on probation; only the echo
// of a probe sent after the demotion readmits it. A Sequential engine
// nobody waits on runs no progress pass, so no genuine probe races the
// injected pongs.
func TestStalePongDoesNotReadmit(t *testing.T) {
	c := newCluster(t, 2, withMode(Sequential))
	eng := c.Nodes[0].Eng
	rail := eng.rails[0]

	// The demotion stamp lies in [before, after]: before-1 strictly
	// predates it, after+1 strictly postdates it.
	before := time.Now().UnixNano()
	eng.demoteRail(rail, 1)
	after := time.Now().UnixNano()
	if got := eng.probationCount.Load(); got != 1 {
		t.Fatalf("probationCount = %d after demotion, want 1", got)
	}

	eng.handlePong(rail, &wire.Packet{Src: 1, Seq: uint64(before - 1)})
	if got := eng.Stats().RailReadmits; got != 0 {
		t.Fatalf("pong stamped before the demotion readmitted the rail (RailReadmits = %d)", got)
	}
	if got := eng.probationCount.Load(); got != 1 {
		t.Fatalf("probationCount = %d after a stale pong, want 1", got)
	}

	eng.handlePong(rail, &wire.Packet{Src: 1, Seq: uint64(after + 1)})
	if got := eng.Stats().RailReadmits; got != 1 {
		t.Fatalf("pong stamped after the demotion did not readmit the rail (RailReadmits = %d)", got)
	}
	if got := eng.probationCount.Load(); got != 0 {
		t.Fatalf("probationCount = %d after readmission, want 0", got)
	}
}
