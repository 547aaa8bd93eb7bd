package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTwoProcessPingpong runs the acceptance exchange of the fabric
// layer: two separate OS processes (re-execs of this test binary, each
// running one rank via the helpers below) complete the full eager and
// rendezvous sweep over fabric/tcpfab on loopback.
func TestTwoProcessPingpong(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "" {
		t.Skip("helper invocation")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	rank0 := exec.Command(exe, "-test.run", "TestHelperRank0", "-test.v")
	rank0.Env = append(os.Environ(), "PINGPONG_HELPER=rank0")
	out0, err := rank0.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	rank0.Stderr = os.Stderr
	if err := rank0.Start(); err != nil {
		t.Fatal(err)
	}
	defer rank0.Process.Kill()

	// Scrape the ephemeral port from rank 0's banner, then keep the
	// pipe drained so the child never stalls on a full stdout buffer.
	sc := bufio.NewScanner(out0)
	addr := ""
	lines0 := make(chan string, 64)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		t.Fatal("rank 0 never announced its listen address")
	}
	go func() {
		defer close(lines0)
		for sc.Scan() {
			lines0 <- sc.Text()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rank1 := exec.CommandContext(ctx, exe, "-test.run", "TestHelperRank1", "-test.v")
	rank1.Env = append(os.Environ(), "PINGPONG_HELPER=rank1", "PINGPONG_CONNECT="+addr)
	out1, err := rank1.CombinedOutput()
	if err != nil {
		t.Fatalf("rank 1 process failed (ctx: %v): %v\n%s", ctx.Err(), err, out1)
	}
	if !strings.Contains(string(out1), "rank 1 ok") {
		t.Fatalf("rank 1 did not report success:\n%s", out1)
	}

	waitErr := make(chan error, 1)
	go func() { waitErr <- rank0.Wait() }()
	var log0 []string
	for line := range lines0 {
		log0 = append(log0, line)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("rank 0 process failed: %v\n%s", err, strings.Join(log0, "\n"))
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("rank 0 did not exit\n%s", strings.Join(log0, "\n"))
	}

	all := strings.Join(log0, "\n")
	if !strings.Contains(all, "rank 0 ok") {
		t.Fatalf("rank 0 did not report success:\n%s", all)
	}
	// The sweep must have crossed both protocols.
	if !strings.Contains(all, "eager") || !strings.Contains(all, "rendezvous") {
		t.Fatalf("sweep missing a protocol:\n%s", all)
	}
}

// TestHelperRank0 is the re-exec body of the listening rank; it only runs
// inside TestTwoProcessPingpong's child process.
func TestHelperRank0(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "rank0" {
		t.Skip("helper entry point")
	}
	if code := runReal("127.0.0.1:0", "", "", "", 0, true, nil); code != 0 {
		t.Fatalf("rank 0 exited %d", code)
	}
}

// TestHelperRank1 is the re-exec body of the connecting rank.
func TestHelperRank1(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "rank1" {
		t.Skip("helper entry point")
	}
	if code := runReal("", os.Getenv("PINGPONG_CONNECT"), "", "", 0, true, nil); code != 0 {
		t.Fatalf("rank 1 exited %d", code)
	}
}

// TestTwoProcessPingpongUDP is the UDP-datagram acceptance exchange: two
// separate OS processes complete the full eager and rendezvous sweep
// over fabric/udpfab on loopback — real datagrams, reliability sublayer
// and all, with rendezvous payloads chunked to the single-datagram frame
// ceiling.
func TestTwoProcessPingpongUDP(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "" {
		t.Skip("helper invocation")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	rank0 := exec.Command(exe, "-test.run", "TestHelperUDPRank0", "-test.v")
	rank0.Env = append(os.Environ(), "PINGPONG_HELPER=udprank0")
	out0, err := rank0.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	rank0.Stderr = os.Stderr
	if err := rank0.Start(); err != nil {
		t.Fatal(err)
	}
	defer rank0.Process.Kill()

	// Scrape the ephemeral port from rank 0's banner, then keep the
	// pipe drained so the child never stalls on a full stdout buffer.
	sc := bufio.NewScanner(out0)
	addr := ""
	lines0 := make(chan string, 64)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		t.Fatal("rank 0 never announced its listen address")
	}
	go func() {
		defer close(lines0)
		for sc.Scan() {
			lines0 <- sc.Text()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rank1 := exec.CommandContext(ctx, exe, "-test.run", "TestHelperUDPRank1", "-test.v")
	rank1.Env = append(os.Environ(), "PINGPONG_HELPER=udprank1", "PINGPONG_UDP="+addr)
	out1, err := rank1.CombinedOutput()
	if err != nil {
		t.Fatalf("rank 1 process failed (ctx: %v): %v\n%s", ctx.Err(), err, out1)
	}
	if !strings.Contains(string(out1), "rank 1 ok") {
		t.Fatalf("rank 1 did not report success:\n%s", out1)
	}

	waitErr := make(chan error, 1)
	go func() { waitErr <- rank0.Wait() }()
	var log0 []string
	for line := range lines0 {
		log0 = append(log0, line)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("rank 0 process failed: %v\n%s", err, strings.Join(log0, "\n"))
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("rank 0 did not exit\n%s", strings.Join(log0, "\n"))
	}

	all := strings.Join(log0, "\n")
	if !strings.Contains(all, "rank 0 ok") {
		t.Fatalf("rank 0 did not report success:\n%s", all)
	}
	// The sweep must have crossed both protocols.
	if !strings.Contains(all, "eager") || !strings.Contains(all, "rendezvous") {
		t.Fatalf("sweep missing a protocol:\n%s", all)
	}
}

// TestHelperUDPRank0 is the re-exec body of the binding UDP rank; it
// only runs inside TestTwoProcessPingpongUDP's child process.
func TestHelperUDPRank0(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "udprank0" {
		t.Skip("helper entry point")
	}
	if code := runReal("", "", "", "127.0.0.1:0", 0, true, nil); code != 0 {
		t.Fatalf("rank 0 exited %d", code)
	}
}

// TestHelperUDPRank1 is the re-exec body of the echoing UDP rank.
func TestHelperUDPRank1(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "udprank1" {
		t.Skip("helper entry point")
	}
	if code := runReal("", "", "", os.Getenv("PINGPONG_UDP"), 1, true, nil); code != 0 {
		t.Fatalf("rank 1 exited %d", code)
	}
}

// TestTwoProcessPingpongShm is the shared-memory acceptance exchange: two
// separate OS processes complete the full eager and rendezvous sweep over
// fabric/shmfab ring files in a shared fresh directory. Unlike the TCP
// variant there is no address to scrape — both ranks start concurrently
// and whichever arrives first creates the rings.
func TestTwoProcessPingpongShm(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "" {
		t.Skip("helper invocation")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	spawn := func(rank string) *exec.Cmd {
		cmd := exec.CommandContext(ctx, exe, "-test.run", "TestHelperShmRank"+rank, "-test.v")
		cmd.Env = append(os.Environ(), "PINGPONG_HELPER=shmrank"+rank, "PINGPONG_SHM="+dir)
		return cmd
	}
	rank1 := spawn("1")
	out1 := &strings.Builder{}
	rank1.Stdout, rank1.Stderr = out1, out1
	if err := rank1.Start(); err != nil {
		t.Fatal(err)
	}
	defer rank1.Process.Kill()

	rank0 := spawn("0")
	out0, err := rank0.CombinedOutput()
	if err != nil {
		t.Fatalf("rank 0 process failed (ctx: %v): %v\n%s", ctx.Err(), err, out0)
	}
	if err := rank1.Wait(); err != nil {
		t.Fatalf("rank 1 process failed: %v\n%s", err, out1.String())
	}
	if !strings.Contains(string(out0), "rank 0 ok") {
		t.Fatalf("rank 0 did not report success:\n%s", out0)
	}
	if !strings.Contains(out1.String(), "rank 1 ok") {
		t.Fatalf("rank 1 did not report success:\n%s", out1.String())
	}
	// The sweep must have crossed both protocols.
	if all := string(out0); !strings.Contains(all, "eager") || !strings.Contains(all, "rendezvous") {
		t.Fatalf("sweep missing a protocol:\n%s", all)
	}
}

// TestTwoProcessPingpongBonded is the multirail acceptance exchange: two
// OS processes bond the TCP and shared-memory transports into one world,
// sweep each rail solo to calibrate the striping weights, then stripe
// rendezvous payloads across both. What it asserts is causal, not a
// bandwidth race: every echo came back intact (the binary exits non-zero
// otherwise) and both rails carried DATA packets during the multirail
// phase — the same fact internal/mpi's TestBondedHeterogeneousRails pins
// in-process. With no timing in the verdict it runs under -short and
// -race like the other two-process tests.
func TestTwoProcessPingpongBonded(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "" {
		t.Skip("helper invocation")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "rings")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()
	rank0 := exec.CommandContext(ctx, exe, "-test.run", "TestHelperBondedRank0", "-test.v")
	rank0.Env = append(os.Environ(), "PINGPONG_HELPER=bonded0", "PINGPONG_SHM="+dir)
	out0, err := rank0.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	rank0.Stderr = os.Stderr
	if err := rank0.Start(); err != nil {
		t.Fatal(err)
	}
	defer rank0.Process.Kill()

	sc := bufio.NewScanner(out0)
	addr := ""
	var log0 []string
	for sc.Scan() {
		line := sc.Text()
		log0 = append(log0, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			if j := strings.Index(addr, " "); j >= 0 {
				addr = addr[:j]
			}
			break
		}
	}
	if addr == "" {
		t.Fatalf("rank 0 never announced its listen address:\n%s", strings.Join(log0, "\n"))
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			log0 = append(log0, sc.Text())
		}
	}()

	rank1 := exec.CommandContext(ctx, exe, "-test.run", "TestHelperBondedRank1", "-test.v")
	rank1.Env = append(os.Environ(), "PINGPONG_HELPER=bonded1", "PINGPONG_SHM="+dir, "PINGPONG_CONNECT="+addr)
	out1, err := rank1.CombinedOutput()
	if err != nil {
		t.Fatalf("rank 1 process failed (ctx: %v): %v\n%s", ctx.Err(), err, out1)
	}
	// Drain stdout fully before Wait: Wait closes the pipe and would
	// discard buffered lines — including the packet counts below.
	<-drained
	err = rank0.Wait()
	all := strings.Join(log0, "\n")
	if err != nil {
		t.Fatalf("rank 0 process failed: %v\n%s", err, all)
	}
	// The sweep must have crossed both protocols and striped for real.
	for _, want := range []string{"rank 0 ok", "eager", "rendezvous", "multirail"} {
		if !strings.Contains(all, want) {
			t.Fatalf("bonded sweep output missing %q:\n%s", want, all)
		}
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
}

// TestHelperBondedRank0 is the re-exec body of the bonded listening rank;
// it only runs inside TestTwoProcessPingpongBonded's child process.
func TestHelperBondedRank0(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "bonded0" {
		t.Skip("helper entry point")
	}
	if code := runBonded("127.0.0.1:0", "", os.Getenv("PINGPONG_SHM"), true, nil); code != 0 {
		t.Fatalf("rank 0 exited %d", code)
	}
}

// TestHelperBondedRank1 is the re-exec body of the bonded dialing rank.
func TestHelperBondedRank1(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "bonded1" {
		t.Skip("helper entry point")
	}
	if code := runBonded("", os.Getenv("PINGPONG_CONNECT"), os.Getenv("PINGPONG_SHM"), true, nil); code != 0 {
		t.Fatalf("rank 1 exited %d", code)
	}
}

// TestHelperShmRank0 is the re-exec body of the sweeping shared-memory
// rank; it only runs inside TestTwoProcessPingpongShm's child process.
func TestHelperShmRank0(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "shmrank0" {
		t.Skip("helper entry point")
	}
	if code := runReal("", "", os.Getenv("PINGPONG_SHM"), "", 0, true, nil); code != 0 {
		t.Fatalf("rank 0 exited %d", code)
	}
}

// TestHelperShmRank1 is the re-exec body of the echoing shared-memory rank.
func TestHelperShmRank1(t *testing.T) {
	if os.Getenv("PINGPONG_HELPER") != "shmrank1" {
		t.Skip("helper entry point")
	}
	if code := runReal("", "", os.Getenv("PINGPONG_SHM"), "", 1, true, nil); code != 0 {
		t.Fatalf("rank 1 exited %d", code)
	}
}
