package mpi

import (
	"strings"
	"testing"
)

// TestJoinClusterFabricContract: a fabric JoinCluster cannot build fails
// before anything is opened, with an error naming the variable to fix.
func TestJoinClusterFabricContract(t *testing.T) {
	for _, tc := range []struct {
		fabric, shmDir, want string
	}{
		{"ib", "", EnvFabric},
		{"shm", "", EnvShmDir},
		{"tcp+shm", "", EnvShmDir},
	} {
		t.Run(tc.fabric, func(t *testing.T) {
			t.Setenv(EnvRank, "0")
			t.Setenv(EnvNranks, "2")
			t.Setenv(EnvRegistry, "127.0.0.1:1")
			t.Setenv(EnvHostRegistry, "")
			t.Setenv(EnvFabric, tc.fabric)
			t.Setenv(EnvShmDir, tc.shmDir)
			cw, err := JoinCluster(Config{})
			if err == nil {
				cw.Close()
				t.Fatalf("%s=%q joined, want an error", EnvFabric, tc.fabric)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}
