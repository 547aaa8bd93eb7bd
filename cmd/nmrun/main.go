// Command nmrun launches an N-rank cluster as separate OS processes —
// the mpirun analog for this codebase. It embeds the cluster registry
// in rank 0's environment by default, exports the environment contract
// (mpi.EnvRank and friends) to every child, streams each rank's output
// with a rank prefix, and reaps them all:
//
//	nmrun -n 4 -- ./pingpong -quick
//
// It is the one way to start a multi-process world, on any transport:
// -fabric picks tcp (the default), udp, shm, or tcp+shm (a tcp rail
// bonded with an shm rail) and is exported as mpi.EnvFabric. For the shm
// fabrics nmrun creates a fresh ring directory, exports it as
// mpi.EnvShmDir, and removes it when the run ends:
//
//	nmrun -n 2 -fabric tcp+shm -- ./pingpong -quick
//
// Ranks find each other through the registry: each opens its fabric
// endpoint (tcp and udp on an ephemeral port), registers (rank, fabric,
// addr), blocks until all N arrived, and then heartbeats
// (internal/cluster, docs/CLUSTER.md). A rank that crashes stops
// heartbeating; the registry declares it dead, and every survivor's
// engine completes pending requests toward it with core.ErrPeerDead
// instead of hanging.
//
// Fault-tolerance switches:
//
//	nmrun -n 4 -kill-rank 2 -kill-after 2s -- ./pingpong
//
// kills rank 2 with SIGKILL mid-run — the CI smoke test for the
// bounded-failure semantics: survivors must still exit 0. With
// -respawn, a crashed rank is relaunched (the registry revives it and
// survivors get MarkPeerAlive), up to 3 times per rank before nmrun
// gives up — mirroring the registry's own flap ban. -respawn is refused
// with the shm fabrics: shmfab claims a rank's rings once per directory,
// so a relaunched rank could not attach again.
//
// A registry can also run standalone, for worlds whose ranks are
// launched by something else (or on other hosts):
//
//	nmrun -registry-only -listen 127.0.0.1:7070 -n 4     # control plane
//	PIOMAN_RANK=0 PIOMAN_NRANKS=4 \
//	  PIOMAN_REGISTRY=127.0.0.1:7070 \
//	  PIOMAN_REGISTRY_RANK=-1 ./pingpong                  # each rank, by hand
//
// Exit status: 0 when every rank that was not deliberately killed exits
// 0; the first failing rank's exit code otherwise.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"pioman/internal/cluster"
	"pioman/internal/mpi"
)

// maxRespawns bounds -respawn relaunches per rank; the registry's flap
// ban would refuse the rejoin soon after anyway.
const maxRespawns = 3

func main() {
	n := flag.Int("n", 0, "world size: number of ranks to launch")
	registry := flag.String("registry", "", "use a standalone registry at this address instead of embedding one in rank 0 (losing it then kills nobody)")
	registryOnly := flag.Bool("registry-only", false, "run only the registry (with -listen and -n), no ranks; Ctrl-C stops it")
	listen := flag.String("listen", "127.0.0.1:0", "with -registry-only: the address the registry serves on")
	heartbeat := flag.Duration("heartbeat", cluster.DefaultHeartbeatInterval, "heartbeat interval exported to every rank")
	peerDeadline := flag.Duration("peer-deadline", 0, "arm engine-side death detection in every rank: pending requests toward a rank silent this long complete with core.ErrPeerDead (0 leaves detection to the registry alone)")
	respawn := flag.Bool("respawn", false, "relaunch a rank that exits nonzero (up to 3 times per rank); the registry revives it on rejoin")
	killRank := flag.Int("kill-rank", -1, "fault injection: SIGKILL this rank after -kill-after (its exit does not fail the run)")
	killAfter := flag.Duration("kill-after", 2*time.Second, "how long after launch -kill-rank strikes")
	fabricName := flag.String("fabric", "tcp", "the transport every rank opens: tcp, udp, shm, or tcp+shm (a tcp rail bonded with an shm rail); the shm fabrics get a fresh ring directory, removed when the run ends")
	flag.Parse()

	if *registryOnly {
		os.Exit(runRegistryOnly(*listen, *n, *heartbeat))
	}
	if *n <= 0 {
		fail("need a positive world size: nmrun -n <ranks> -- <command> [args]")
	}
	args := flag.Args()
	if len(args) == 0 {
		fail("need a command to launch: nmrun -n <ranks> -- <command> [args]")
	}
	if *killRank >= *n {
		fail(fmt.Sprintf("-kill-rank %d is outside the world [0,%d)", *killRank, *n))
	}
	if *respawn && *killRank >= 0 {
		fail("-respawn would immediately relaunch the rank -kill-rank just killed; pick one")
	}
	shm := false
	switch *fabricName {
	case "tcp", "udp":
	case "shm", "tcp+shm":
		shm = true
	default:
		fail(fmt.Sprintf("-fabric %q: supported fabrics are tcp, udp, shm and tcp+shm", *fabricName))
	}
	if shm && *respawn {
		fail("-respawn cannot relaunch a rank over shm: its ring claim in the run's directory stays taken, so the new process could not attach")
	}

	// Resolve the control plane: an external registry as given, or a
	// pre-picked loopback port that rank 0 will bind its embedded
	// registry to (children inherit the address through the environment
	// before any of them has started).
	registryAddr, hostRank := *registry, -1
	if registryAddr == "" {
		addr, err := freePort()
		if err != nil {
			fail(fmt.Sprintf("picking a registry port: %v", err))
		}
		registryAddr, hostRank = addr, 0
	}

	env := []string{mpi.EnvFabric + "=" + *fabricName}
	shmDir := ""
	if shm {
		dir, err := os.MkdirTemp("", "nmrun-rings-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmrun: ring directory: %v\n", err)
			os.Exit(1)
		}
		shmDir = dir
		env = append(env, mpi.EnvShmDir+"="+dir)
	}

	r := &runner{
		n:            *n,
		args:         args,
		env:          env,
		registry:     registryAddr,
		hostRank:     hostRank,
		heartbeat:    *heartbeat,
		peerDeadline: *peerDeadline,
		respawn:      *respawn,
		killRank:     *killRank,
		killAfter:    *killAfter,
		procs:        make([]*exec.Cmd, *n),
		respawns:     make([]int, *n),
	}
	code := r.run()
	if shmDir != "" {
		os.RemoveAll(shmDir)
	}
	os.Exit(code)
}

// fail prints a usage error and exits with the flag-error convention.
func fail(msg string) {
	fmt.Fprintf(os.Stderr, "nmrun: %s\n", msg)
	os.Exit(2)
}

// freePort reserves and releases a loopback TCP port. The tiny window
// between release and rank 0 binding it is acceptable on loopback: the
// alternative (nmrun hosting the registry itself) would make nmrun's
// own death a world-killing event, which -respawn exists to avoid.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// runRegistryOnly serves a standalone registry until interrupted.
func runRegistryOnly(listen string, n int, heartbeat time.Duration) int {
	if n <= 0 {
		fail("-registry-only needs -n, the world size the registry forms")
	}
	reg, err := cluster.NewRegistry(cluster.Config{
		Nranks:            n,
		Listen:            listen,
		HeartbeatInterval: heartbeat,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmrun: %v\n", err)
		return 1
	}
	fmt.Printf("nmrun: registry for %d ranks on %s\n", n, reg.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	reg.Close()
	return 0
}

// runner owns one launch: N children, their output pumps, the optional
// kill timer, and the respawn policy.
type runner struct {
	n            int
	args         []string
	env          []string // the run-wide contract: fabric, ring directory
	registry     string
	hostRank     int
	heartbeat    time.Duration
	peerDeadline time.Duration
	respawn      bool
	killRank     int
	killAfter    time.Duration

	mu       sync.Mutex
	procs    []*exec.Cmd
	respawns []int
	killed   bool // the -kill-rank strike happened

	code chan rankExit
}

// rankExit is one rank's terminal status.
type rankExit struct {
	rank int
	code int
}

func (r *runner) run() int {
	r.code = make(chan rankExit, r.n*(maxRespawns+1))
	for rank := 0; rank < r.n; rank++ {
		if err := r.spawn(rank); err != nil {
			fmt.Fprintf(os.Stderr, "nmrun: rank %d: %v\n", rank, err)
			r.killAll()
			return 1
		}
	}
	fmt.Printf("nmrun: launched %d ranks (registry %s)\n", r.n, r.registry)

	if r.killRank >= 0 {
		time.AfterFunc(r.killAfter, func() {
			r.mu.Lock()
			p := r.procs[r.killRank]
			r.killed = true
			r.mu.Unlock()
			if p != nil && p.Process != nil {
				fmt.Printf("nmrun: killing rank %d (fault injection)\n", r.killRank)
				p.Process.Kill()
			}
		})
	}

	// Forward Ctrl-C to the children so an interrupted run tears the
	// whole world down rather than orphaning ranks.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "nmrun: interrupted, stopping all ranks")
		r.killAll()
	}()

	// Reap: every rank must reach a terminal exit. A deliberately killed
	// rank never fails the run; a crashed rank is respawned when asked
	// (and possible), otherwise its code becomes the run's.
	remaining := r.n
	final := 0
	for remaining > 0 {
		ex := <-r.code
		deliberate := ex.rank == r.killRank && r.wasKilled()
		switch {
		case ex.code == 0 || deliberate:
			remaining--
		case r.respawn && r.respawns[ex.rank] < maxRespawns:
			r.respawns[ex.rank]++
			fmt.Printf("nmrun: rank %d exited %d; respawning (%d/%d)\n", ex.rank, ex.code, r.respawns[ex.rank], maxRespawns)
			if err := r.spawn(ex.rank); err != nil {
				fmt.Fprintf(os.Stderr, "nmrun: rank %d respawn: %v\n", ex.rank, err)
				remaining--
				if final == 0 {
					final = ex.code
				}
			}
		default:
			fmt.Fprintf(os.Stderr, "nmrun: rank %d exited %d\n", ex.rank, ex.code)
			remaining--
			if final == 0 {
				final = ex.code
			}
		}
	}
	if final == 0 {
		fmt.Println("nmrun: all ranks done")
	}
	return final
}

// wasKilled reports whether the fault-injection strike already fired.
func (r *runner) wasKilled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.killed
}

// spawn launches one rank with the environment contract and wires its
// output through the prefix pumps.
func (r *runner) spawn(rank int) error {
	cmd := exec.Command(r.args[0], r.args[1:]...)
	cmd.Env = append(append(os.Environ(), r.env...),
		fmt.Sprintf("%s=%d", mpi.EnvRank, rank),
		fmt.Sprintf("%s=%d", mpi.EnvNranks, r.n),
		fmt.Sprintf("%s=%s", mpi.EnvRegistry, r.registry),
		fmt.Sprintf("%s=%d", mpi.EnvRegistryRank, r.hostRank),
		fmt.Sprintf("%s=%d", mpi.EnvHeartbeatMS, r.heartbeat.Milliseconds()),
	)
	if rank == r.hostRank {
		cmd.Env = append(cmd.Env, mpi.EnvHostRegistry+"=1")
	}
	if r.peerDeadline > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", mpi.EnvPeerDeadlineMS, r.peerDeadline.Milliseconds()))
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	r.mu.Lock()
	r.procs[rank] = cmd
	r.mu.Unlock()
	var pumps sync.WaitGroup
	pumps.Add(2)
	go r.pump(rank, stdout, os.Stdout, &pumps)
	go r.pump(rank, stderr, os.Stderr, &pumps)
	go func() {
		// Wait closes the pipes once the rank exits: drain them first,
		// or a rank's last lines are lost. The exit is reported after
		// its output, so the reap loop ends with every pump done.
		pumps.Wait()
		err := cmd.Wait()
		code := 0
		if err != nil {
			code = 1
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
				if code < 0 {
					code = 128 // killed by signal
				}
			}
		}
		r.code <- rankExit{rank: rank, code: code}
	}()
	return nil
}

// pump copies one child stream line-by-line under a "[rank N]" prefix.
func (r *runner) pump(rank int, src interface{ Read([]byte) (int, error) }, dst *os.File, done *sync.WaitGroup) {
	defer done.Done()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		fmt.Fprintf(dst, "[rank %d] %s\n", rank, sc.Text())
	}
}

// killAll SIGKILLs every live child.
func (r *runner) killAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.procs {
		if p != nil && p.Process != nil {
			p.Process.Kill()
		}
	}
}
