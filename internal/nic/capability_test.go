package nic_test

import (
	"testing"

	"pioman/internal/fabric"
	"pioman/internal/fabric/conformance"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/simfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/nic"
	"pioman/internal/wire"
)

// TestGoroutineFedResolution pins which rails tell the engine that a
// spinning waiter must yield: the transports whose PollBatch only pops
// what an endpoint goroutine read (tcpfab, udpfab — also behind the
// chaos wrapper, which leaves the receive path to the inner endpoint),
// and not the ones whose PollBatch moves the frames itself. Carrying the
// capability on shmfab halves its small-message rate (docs/PERF.md).
func TestGoroutineFedResolution(t *testing.T) {
	open := func(f fabric.Fabric, err error) fabric.Fabric {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	tcpFab := open(tcpfab.NewLocal(2))
	udpFab := open(udpfab.NewLocal(2))
	shmFab := open(shmfab.NewLocal(2, t.TempDir()))

	for _, tc := range []struct {
		name string
		fab  fabric.Fabric
		p    nic.Params
		want bool
	}{
		{"tcpfab", tcpFab, nic.RealParams(), true},
		{"udpfab", udpFab, nic.UdpParams(), true},
		{"chaos(tcpfab)", conformance.NewChaos(tcpFab, conformance.ChaosConfig{Seed: 1}), nic.RealParams(), true},
		{"shmfab", shmFab, nic.ShmParams(), false},
		{"simfab", simfab.New(wire.NewFabric(2, nic.MXParams().Link)), nic.MXParams(), false},
		{"chaos(shmfab)", conformance.NewChaos(shmFab, conformance.ChaosConfig{Seed: 1}), nic.ShmParams(), false},
	} {
		ep, err := tc.fab.Endpoint(0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := nic.New(tc.p, ep).GoroutineFed(); got != tc.want {
			t.Errorf("%s: GoroutineFed() = %t, want %t", tc.name, got, tc.want)
		}
	}
}
