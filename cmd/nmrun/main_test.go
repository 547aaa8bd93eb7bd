package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pioman/internal/mpi"
)

// TestMain lets the tests re-exec this binary as nmrun itself
// (NMRUN_TEST_MAIN=1) and as the ranks it launches: a process given the
// rank contract writes a file into its ring directory, proving the
// directory exists while the run does, and prints where it is.
func TestMain(m *testing.M) {
	if rank := os.Getenv(mpi.EnvRank); rank != "" {
		dir := os.Getenv(mpi.EnvShmDir)
		if err := os.WriteFile(filepath.Join(dir, "rank"+rank), nil, 0o644); err != nil {
			fmt.Println(err)
			os.Exit(1)
		}
		fmt.Printf("ring dir %s\n", dir)
		os.Exit(0)
	}
	if os.Getenv("NMRUN_TEST_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// nmrun runs this binary as nmrun with args, with TMPDIR pointed at a
// fresh directory so what a run leaves behind is visible.
func nmrun(t *testing.T, args ...string) (tmp, out string, err error) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tmp = t.TempDir()
	cmd := exec.Command(exe, append(args, "--", exe)...)
	cmd.Env = append(os.Environ(), "NMRUN_TEST_MAIN=1", "TMPDIR="+tmp)
	b, err := cmd.CombinedOutput()
	return tmp, string(b), err
}

// TestShmRingDirRemoved: a -fabric shm run hands every rank the same
// fresh ring directory and removes it when the run ends.
func TestShmRingDirRemoved(t *testing.T) {
	tmp, out, err := nmrun(t, "-n", "2", "-fabric", "shm")
	if err != nil {
		t.Fatalf("nmrun failed: %v\n%s", err, out)
	}
	dirs := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if _, dir, ok := strings.Cut(line, "ring dir "); ok {
			dirs[dir] = true
		}
	}
	if len(dirs) != 1 || strings.Count(out, "ring dir ") != 2 {
		t.Fatalf("want both ranks on one ring directory:\n%s", out)
	}
	for dir := range dirs {
		if filepath.Dir(dir) != tmp {
			t.Fatalf("ring directory %s is not under TMPDIR %s", dir, tmp)
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("the run left %d entries behind in TMPDIR (first %s)", len(left), left[0].Name())
	}
}

// TestRespawnRefusedOverShm: -respawn cannot relaunch an shm rank (its
// ring claim stays taken), so nmrun refuses the pair up front, before it
// creates a ring directory or launches anything.
func TestRespawnRefusedOverShm(t *testing.T) {
	for _, fab := range []string{"shm", "tcp+shm"} {
		tmp, out, err := nmrun(t, "-n", "2", "-fabric", fab, "-respawn")
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(out, "-respawn") {
			t.Fatalf("-fabric %s -respawn: want a usage error naming -respawn (exit 2), got %v:\n%s", fab, err, out)
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 || strings.Contains(out, "ring dir") {
			t.Fatalf("-fabric %s -respawn launched or left something:\n%s", fab, out)
		}
	}
}
