package core_test

import (
	"testing"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
)

// TestOffloadWaiting: only a Multithreaded engine with OffloadEager has an
// offloaded send waiting after an eager Isend. The world's rails are real
// and it has no blocking watchers, so its idle cores park and nobody
// submits the send before the test looks.
func TestOffloadWaiting(t *testing.T) {
	for _, row := range []struct {
		name    string
		mode    core.Mode
		offload bool
		want    bool
	}{
		{"sequential", core.Sequential, false, false},
		{"multithreaded without OffloadEager", core.Multithreaded, false, false},
		{"multithreaded after an eager Isend", core.Multithreaded, true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			f, err := tcpfab.NewLocal(2)
			if err != nil {
				t.Fatal(err)
			}
			rail := nic.RealParams()
			w := mpi.NewWorld(mpi.Config{
				Nodes:        2,
				Mode:         row.mode,
				OffloadEager: row.offload,
				MX:           rail,
				Fabrics:      map[string]fabric.Fabric{rail.Name: f},
			})
			defer w.Close()
			eng := w.Node(0).Eng
			if eng.OffloadWaiting() {
				t.Fatal("an offloaded send waits before any Isend")
			}
			r := eng.Isend(1, 1, make([]byte, 64))
			if got := eng.OffloadWaiting(); got != row.want {
				t.Errorf("OffloadWaiting after an eager Isend = %v, want %v", got, row.want)
			}
			w.Node(0).Run(func(p *mpi.Proc) { p.WaitSend(r) })
			if eng.OffloadWaiting() {
				t.Error("an offloaded send still waits after WaitSend")
			}
		})
	}
}
