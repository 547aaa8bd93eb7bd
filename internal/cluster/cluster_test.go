package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestJoinFormsWorld has three ranks join concurrently and checks every
// one gets the same sorted three-entry peer map at a nonzero epoch.
func TestJoinFormsWorld(t *testing.T) {
	reg, err := NewRegistry(Config{Nranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var wg sync.WaitGroup
	results := make([][]Peer, 3)
	clients := make([]*Client, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, peers, epoch, err := Join(reg.Addr(), r, 3, "tcp", fmt.Sprintf("127.0.0.1:%d", 9000+r), 5*time.Second)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			if epoch == 0 {
				t.Errorf("rank %d: formed world reported epoch 0", r)
			}
			clients[r], results[r] = c, peers
		}(r)
	}
	wg.Wait()
	for r := 0; r < 3; r++ {
		if clients[r] != nil {
			defer clients[r].Close()
		}
		peers := results[r]
		if len(peers) != 3 {
			t.Fatalf("rank %d got %d peers, want 3", r, len(peers))
		}
		for i, p := range peers {
			want := fmt.Sprintf("127.0.0.1:%d", 9000+i)
			if p.Rank != i || p.Fabric != "tcp" || p.Addr != want {
				t.Fatalf("rank %d peer[%d] = %+v, want rank %d tcp %s", r, i, p, i, want)
			}
		}
	}
}

// TestLivenessDetectsSilentRank forms a two-rank world, heartbeats only
// rank 0, and checks the sweeper declares rank 1 dead — and that rank
// 0's client surfaces the death through its onDeath callback.
func TestLivenessDetectsSilentRank(t *testing.T) {
	reg, err := NewRegistry(Config{
		Nranks:            2,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var wg sync.WaitGroup
	clients := make([]*Client, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, _, _, err := Join(reg.Addr(), r, 2, "tcp", "x", 5*time.Second)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			clients[r] = c
		}(r)
	}
	wg.Wait()
	if clients[0] == nil || clients[1] == nil {
		t.Fatal("join failed")
	}

	var deadMu sync.Mutex
	var deaths []int
	clients[0].Start(20*time.Millisecond, func(rank int) {
		deadMu.Lock()
		deaths = append(deaths, rank)
		deadMu.Unlock()
	}, nil)
	defer clients[0].Close()
	// Rank 1 never starts heartbeating: after 3 missed intervals the
	// sweeper must declare it dead.
	defer clients[1].Close()

	waitFor(t, 2*time.Second, "rank 1 declared dead", func() bool {
		_, _, dead := reg.Snapshot()
		return len(dead) == 1 && dead[0] == 1
	})
	waitFor(t, 2*time.Second, "rank 0 observing the death", func() bool {
		deadMu.Lock()
		defer deadMu.Unlock()
		return len(deaths) == 1 && deaths[0] == 1
	})
}

// TestLeaveAndRejoinRevives checks a graceful leave marks the rank dead
// immediately, a rejoin revives it (epoch advances both times), and the
// surviving client sees death then revival.
func TestLeaveAndRejoinRevives(t *testing.T) {
	reg, err := NewRegistry(Config{
		Nranks:            2,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var wg sync.WaitGroup
	clients := make([]*Client, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, _, _, err := Join(reg.Addr(), r, 2, "tcp", "x", 5*time.Second)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			clients[r] = c
		}(r)
	}
	wg.Wait()
	if clients[0] == nil || clients[1] == nil {
		t.Fatal("join failed")
	}

	var mu sync.Mutex
	var died, revived []int
	clients[0].Start(20*time.Millisecond, func(rank int) {
		mu.Lock()
		died = append(died, rank)
		mu.Unlock()
	}, func(rank int) {
		mu.Lock()
		revived = append(revived, rank)
		mu.Unlock()
	})
	defer clients[0].Close()

	epochBefore := reg.Epoch()
	clients[1].Close() // graceful leave
	waitFor(t, 2*time.Second, "rank 0 observing the leave", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(died) == 1 && died[0] == 1
	})
	if reg.Epoch() <= epochBefore {
		t.Fatalf("leave did not advance the epoch (%d -> %d)", epochBefore, reg.Epoch())
	}

	// Respawned incarnation rejoins; world is already formed so the join
	// returns immediately with the peer map, and rank 0 sees the revival.
	c2, peers, _, err := Join(reg.Addr(), 1, 2, "tcp", "y", 5*time.Second)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer c2.Close()
	if len(peers) != 2 || peers[1].Addr != "y" {
		t.Fatalf("rejoin peer map %+v, want rank 1 at addr y", peers)
	}
	waitFor(t, 2*time.Second, "rank 0 observing the revival", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(revived) == 1 && revived[0] == 1
	})
}

// TestFlapBan checks a rank that joins and leaves past the flap limit is
// banned: the join is refused and the rank stays dead.
func TestFlapBan(t *testing.T) {
	reg, err := NewRegistry(Config{
		Nranks:            2,
		HeartbeatInterval: 20 * time.Millisecond,
		flapLimit:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var wg sync.WaitGroup
	clients := make([]*Client, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, _, _, err := Join(reg.Addr(), r, 2, "tcp", "x", 5*time.Second)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			clients[r] = c
		}(r)
	}
	wg.Wait()
	if clients[0] == nil || clients[1] == nil {
		t.Fatal("join failed")
	}
	defer clients[0].Close()
	clients[1].Close()

	// Two more churn cycles exhaust the limit of 3 joins; the fourth
	// join must be refused.
	for i := 0; i < 2; i++ {
		c, _, _, err := Join(reg.Addr(), 1, 2, "tcp", "x", 5*time.Second)
		if err != nil {
			t.Fatalf("churn join %d: %v", i, err)
		}
		c.Close()
	}
	if _, _, _, err := Join(reg.Addr(), 1, 2, "tcp", "x", 5*time.Second); err == nil {
		t.Fatal("join past the flap limit succeeded, want ban")
	}
	_, _, dead := reg.Snapshot()
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("banned rank not in dead set: %v", dead)
	}
}

// TestRegistryLossDeclaresHostRank checks that when the registry itself
// disappears, a client configured with a host rank declares that rank
// dead after the loss tolerance.
func TestRegistryLossDeclaresHostRank(t *testing.T) {
	reg, err := NewRegistry(Config{
		Nranks:            2,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	clients := make([]*Client, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, _, _, err := Join(reg.Addr(), r, 2, "tcp", "x", 5*time.Second)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			clients[r] = c
		}(r)
	}
	wg.Wait()
	if clients[0] == nil || clients[1] == nil {
		t.Fatal("join failed")
	}
	defer clients[0].Close()

	var mu sync.Mutex
	var died []int
	clients[1].SetHostRank(0)
	clients[1].Start(10*time.Millisecond, func(rank int) {
		mu.Lock()
		died = append(died, rank)
		mu.Unlock()
	}, nil)
	defer clients[1].Close()

	reg.Close() // the registry host (rank 0's process) crashes

	waitFor(t, 3*time.Second, "host rank declared dead on registry loss", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(died) == 1 && died[0] == 0
	})
}
