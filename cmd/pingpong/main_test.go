package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pioman/internal/mpi"
)

// TestTwoProcessPingpong is the acceptance exchange of every real
// transport: two separate OS processes (re-execs of this test binary,
// each running one rank through TestHelperRank) join a world through the
// environment contract nmrun exports, rank 0 hosting the registry, and
// complete the full eager and rendezvous sweep with every echo compared
// byte for byte (a corrupted one exits non-zero). The tcp+shm case bonds
// both transports into one world, and what it asserts is causal, not a
// bandwidth race: both rails carried DATA packets during the multirail
// phase — the same fact internal/mpi's TestBondedHeterogeneousRails pins
// in-process. With no timing in the verdict it runs under -short and
// -race.
func TestTwoProcessPingpong(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "" {
		t.Skip("helper invocation")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, fab := range []string{"tcp", "udp", "shm", "tcp+shm"} {
		t.Run(fab, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			registry := ln.Addr().String()
			ln.Close()
			shmDir := filepath.Join(t.TempDir(), "rings")

			ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
			defer cancel()
			outs := make([]*strings.Builder, 2)
			ranks := make([]*exec.Cmd, 2)
			for rank := range ranks {
				cmd := exec.CommandContext(ctx, exe, "-test.run", "^TestHelperRank$", "-test.v")
				cmd.Env = append(os.Environ(), "PINGPONG_HELPER=1",
					fmt.Sprintf("%s=%d", mpi.EnvRank, rank),
					mpi.EnvNranks+"=2",
					mpi.EnvRegistry+"="+registry,
					mpi.EnvFabric+"="+fab,
					mpi.EnvShmDir+"="+shmDir)
				if rank == 0 {
					cmd.Env = append(cmd.Env, mpi.EnvHostRegistry+"=1")
				}
				outs[rank] = &strings.Builder{}
				cmd.Stdout, cmd.Stderr = outs[rank], outs[rank]
				if err := cmd.Start(); err != nil {
					t.Fatal(err)
				}
				defer cmd.Process.Kill()
				ranks[rank] = cmd
			}
			for rank, cmd := range ranks {
				if err := cmd.Wait(); err != nil {
					t.Fatalf("rank %d process failed (ctx: %v): %v\n%s", rank, ctx.Err(), err, outs[rank])
				}
				if want := fmt.Sprintf("rank %d ok", rank); !strings.Contains(outs[rank].String(), want) {
					t.Fatalf("rank %d did not report success:\n%s", rank, outs[rank])
				}
			}
			all := outs[0].String()
			// The sweep must have crossed both protocols.
			if !strings.Contains(all, "eager") || !strings.Contains(all, "rendezvous") {
				t.Fatalf("sweep missing a protocol:\n%s", all)
			}
			if fab != "tcp+shm" {
				return
			}
			const marker = "multirail DATA packets sent"
			i := strings.Index(all, marker)
			if i < 0 {
				t.Fatalf("rank 0 did not report per-rail DATA packets:\n%s", all)
			}
			var tcp, shm uint64
			if _, err := fmt.Sscanf(all[i+len(marker):], " tcp %d shm %d", &tcp, &shm); err != nil {
				t.Fatalf("unparsable per-rail DATA packet line (%v):\n%s", err, all)
			}
			if tcp == 0 || shm == 0 {
				t.Fatalf("multirail phase did not stripe across both rails: tcp sent %d DATA packets, shm %d\n%s", tcp, shm, all)
			}
		})
	}
}

// TestHelperRank is the re-exec body of one rank; it only runs inside
// TestTwoProcessPingpong's child processes. A zero duration runs the
// sweep exactly once.
func TestHelperRank(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") == "" {
		t.Skip("helper entry point")
	}
	if code := runRank(0, true, nil); code != 0 {
		t.Fatalf("rank exited %d", code)
	}
}
