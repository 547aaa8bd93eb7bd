package mpi

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/nic"
	"pioman/internal/topo"
)

// bondedConfig is the engine configuration both ranks of the bonded
// tests run: real-transport polling discipline, two cores. Two weighted
// rails are all striping takes.
func bondedConfig() Config {
	return Config{
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		NoIdlePolling:  true,
		Machine:        topo.Machine{Sockets: 1, CoresPerSocket: 2},
	}
}

// TestBondedHeterogeneousRails is the in-process shape of the paper's
// MX+SHM configuration: one world per rank, each bonding a tcpfab rail
// (the default, carrying eager traffic and the rendezvous handshake)
// with a shmfab rail, and a large rendezvous striped across both real
// transports.
func TestBondedHeterogeneousRails(t *testing.T) {
	tl, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mkWorld := func(rank int) *World {
		tep, err := tl.Endpoint(rank)
		if err != nil {
			t.Fatal(err)
		}
		sep, err := sl.Endpoint(rank)
		if err != nil {
			t.Fatal(err)
		}
		tcpRail := nic.RealParams()
		tcpRail.Name = "tcp"
		return NewDistributedBonded(bondedConfig(), []Rail{
			{Params: tcpRail, Ep: tep},
			{Params: nic.ShmParams(), Ep: sep},
		})
	}
	w0, w1 := mkWorld(0), mkWorld(1)
	defer func() {
		w1.Close()
		w0.Close()
	}()
	if w0.Size() != 2 || w1.Size() != 2 {
		t.Fatalf("bonded worlds report sizes %d/%d, want 2", w0.Size(), w1.Size())
	}

	const size = 512 << 10
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte(i*5 + 1)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w0.Node(0).Run(func(p *Proc) {
			p.Send(1, 7, msg)
			var ack [1]byte
			p.Recv(1, 8, ack[:])
		})
	}()
	go func() {
		defer wg.Done()
		w1.Node(1).Run(func(p *Proc) {
			buf := make([]byte, size)
			if n, _ := p.Recv(0, 7, buf); n != size || !bytes.Equal(buf, msg) {
				t.Errorf("bonded rendezvous corrupted (n=%d)", n)
			}
			p.Send(0, 8, []byte{1})
		})
	}()
	wg.Wait()

	// The payload must genuinely have been striped: both real rails of
	// the sender carried DATA chunks.
	for i, rail := range w0.Node(0).Eng.Rails() {
		if rail.Stats().DataSent == 0 {
			t.Errorf("bonded rail %d (%s) carried no rendezvous chunks", i, rail.Name())
		}
	}
}

// TestBondedValidation pins the construction-time checks: mismatched
// endpoint identities and MTUs above the fabric frame ceiling must fail
// at NewDistributedBonded, not mid-transfer.
func TestBondedValidation(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Errorf("%s: panic %v does not mention %q", name, r, want)
			}
		}()
		fn()
	}

	tl, err := tcpfab.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	ep0, _ := tl.Endpoint(0)
	ep1, _ := tl.Endpoint(1)

	mustPanic("no rails", "at least one rail", func() {
		NewDistributedBonded(bondedConfig(), nil)
	})
	mustPanic("unnamed rail", "needs a name", func() {
		NewDistributedBonded(bondedConfig(), []Rail{{Params: nic.Params{}, Ep: ep0}})
	})
	mustPanic("duplicate names", "duplicate rail name", func() {
		a := nic.RealParams()
		NewDistributedBonded(bondedConfig(), []Rail{{Params: a, Ep: ep0}, {Params: a, Ep: ep0}})
	})
	mustPanic("rank mismatch", "rank", func() {
		a := nic.RealParams()
		b := nic.ShmParams()
		NewDistributedBonded(bondedConfig(), []Rail{{Params: a, Ep: ep0}, {Params: b, Ep: ep1}})
	})
	mustPanic("MTU above frame ceiling", "payload limit", func() {
		a := nic.RealParams()
		a.MTU = fabric.MaxPayloadBytes + 1
		NewDistributedBonded(bondedConfig(), []Rail{{Params: a, Ep: ep0}})
	})
}

// TestWorldRejectsMTUAboveFabricLimit covers the same check on the
// NewWorld path, where a Fabrics override supplies the real transport: a
// rail whose MTU cannot fit one frame used to pass construction and fail
// only when a rendezvous chunk was refused mid-transfer.
func TestWorldRejectsMTUAboveFabricLimit(t *testing.T) {
	l, err := shmfab.NewLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rail := nic.ShmParams()
	rail.MTU = fabric.MaxPayloadBytes + 1
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oversized rail MTU did not panic at world construction")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "payload limit") {
			t.Fatalf("panic %v does not mention the payload limit", r)
		}
	}()
	NewWorld(Config{
		Nodes:   2,
		Machine: topo.Machine{Sockets: 1, CoresPerSocket: 2},
		Mode:    core.Multithreaded,
		MX:      rail,
		Fabrics: map[string]fabric.Fabric{rail.Name: l},
	})
}
