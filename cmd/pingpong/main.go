// Command pingpong runs the classic latency/bandwidth sweep: a
// two-process example and integration driver for the full engine stack.
// It prints what it measures and asserts only correctness (every echo is
// compared byte for byte); the repo's benchmark is nmperf
// (bash benchmark/run.sh, BENCHMARK.json), not this command.
//
// By default it sweeps a simulated fabric, for both the sequential
// baseline and the PIOMan-enabled engine:
//
//	pingpong [-quick] [-max 1048576] [-rails mx,shm]
//
// -rails selects which simulated rails the world gets: "mx,shm" (the
// paper's testbed: Myrinet/MX between nodes plus the intra-node
// shared-memory channel) or "mx" alone.
//
// With -listen, -connect or -shm it instead runs the full engine stack
// between two real OS processes, exercising the eager protocol and the
// RTS/CTS rendezvous protocol on a genuine transport. These flags replace
// the simulated rail set entirely with real rails, so they cannot be
// combined with -rails.
//
// Over TCP (fabric/tcpfab):
//
//	pingpong -listen 127.0.0.1:9777           # rank 0
//	pingpong -connect 127.0.0.1:9777          # rank 1, other process
//
// Rank 0 accepts with -listen (port 0 picks an ephemeral port, printed on
// startup); rank 1 dials it. The connecting rank speaks first so the
// listening rank learns its return path from the accepted connection.
//
// Over shared memory (fabric/shmfab), for two processes on the same host:
//
//	pingpong -shm /tmp/pp-rings -rank 0       # sweeps
//	pingpong -shm /tmp/pp-rings -rank 1       # echoes, other process
//
// Both ranks name the same directory, which must be fresh for the run
// (stale ring files from an earlier run would be spliced in mid-state);
// either rank may start first — ring files are created by whoever
// arrives first and adopted by the other.
//
// Over UDP datagrams (fabric/udpfab), the one transport whose wire
// genuinely loses and reorders, with the reliability sublayer earning
// delivery back:
//
//	pingpong -udp 127.0.0.1:9877 -rank 0      # binds, sweeps
//	pingpong -udp 127.0.0.1:9877 -rank 1      # echoes, other process
//
// Rank 0 binds the named address (port 0 picks an ephemeral port,
// printed on startup); rank 1 binds an ephemeral port and reaches rank 0
// at the named address. Rank 1 speaks first, so rank 0 learns its return
// path from the first valid datagram.
//
// Combining the TCP flags with -shm bonds BOTH real transports into one
// world — the paper's multirail configuration, MX + shared memory, with
// real fabrics standing in — and runs the sweep three times: data forced
// over the TCP rail alone, over the shm rail alone (these two measure
// each rail's actual bandwidth and reseed the striping weights), then
// striped across both by the multirail strategy. Rank 0 prints each
// phase's bandwidth and how many DATA packets each rail carried while
// striping:
//
//	pingpong -listen 127.0.0.1:9777 -shm /tmp/pp-rings    # rank 0
//	pingpong -connect 127.0.0.1:9777 -shm /tmp/pp-rings   # rank 1
//
// With -nrank it runs as one rank of an N-process cluster launched
// through cmd/nmrun (docs/CLUSTER.md):
//
//	nmrun -n 4 -- pingpong -nrank
//
// With -metrics the process serves its live telemetry registry over HTTP
// while the sweep runs — Prometheus text at /metrics, the full snapshot
// as JSON at /metrics.json (what cmd/nmtop polls):
//
//	pingpong -metrics 127.0.0.1:9377          # curl either endpoint mid-run
//
// In the default simulated sweep the multithreaded engine's world is the
// metered one (metric names are keyed by node rank, so one world owns
// the registry at a time); real and bonded runs meter their single
// world. -linger keeps the endpoint up for that long after the sweep
// finishes, so scripted scrapes (CI's telemetry smoke) never race the exit.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pioman/internal/core"
	"pioman/internal/exp"
	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/mpi"
	"pioman/internal/nic"
	"pioman/internal/telemetry"
	"pioman/internal/topo"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts")
	max := flag.Int("max", 1<<20, "largest message size")
	rails := flag.String("rails", "mx,shm", "simulated rails for the default sweep: \"mx\" or \"mx,shm\"; incompatible with -listen/-connect/-shm, which replace the simulated rails with one real transport")
	listen := flag.String("listen", "", "run as rank 0 over real TCP, accepting on this address (replaces the simulated -rails set; with -shm too, bonds both transports into one multirail world)")
	connect := flag.String("connect", "", "run as rank 1 over real TCP, dialing rank 0 at this address (replaces the simulated -rails set; with -shm too, bonds both transports into one multirail world)")
	shmDir := flag.String("shm", "", "run over real shared memory, ring files in this fresh directory (replaces the simulated -rails set; alone it needs -rank; with -listen/-connect it bonds shm with TCP)")
	udpAddr := flag.String("udp", "", "run over real UDP datagrams with the reliability sublayer (fabric/udpfab): rank 0 binds this address, rank 1 reaches rank 0 at it; needs -rank (replaces the simulated -rails set)")
	rank := flag.Int("rank", 0, "with -shm or -udp: this process's rank (0 sweeps, 1 echoes)")
	nrank := flag.Bool("nrank", false, "run as one rank of an N-process cluster launched through cmd/nmrun (reads the PIOMAN_* environment contract): pairwise neighbor pingpong over real TCP, survivor-set totals via allreduce")
	nrankDur := flag.Duration("nrank-duration", 3*time.Second, "with -nrank: how long the initiator of each pair keeps the exchange running (halved by -quick)")
	metricsAddr := flag.String("metrics", "", "serve live telemetry over HTTP on this address while the sweep runs: Prometheus text at /metrics, JSON at /metrics.json (port 0 picks one, printed on startup)")
	linger := flag.Duration("linger", 0, "with -metrics: keep the endpoint up this long after the sweep, so scripted scrapes never race the exit")
	flag.Parse()
	exp.Quick = *quick

	real := *listen != "" || *connect != "" || *shmDir != "" || *udpAddr != ""
	bonded := *shmDir != "" && (*listen != "" || *connect != "")
	if *udpAddr != "" && (*listen != "" || *connect != "" || *shmDir != "") {
		fail("-udp runs a two-process UDP world on its own; it cannot be combined with -listen/-connect/-shm")
	}
	rankSet, railsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "rank":
			rankSet = true
		case "rails":
			railsSet = true
		}
	})
	if *nrank && (real || railsSet || rankSet) {
		fail("-nrank takes its transport and rank from the nmrun environment contract; it cannot be combined with -listen/-connect/-shm/-udp/-rank/-rails")
	}
	if *linger != 0 && *metricsAddr == "" {
		fail("-linger keeps the -metrics endpoint alive; it does nothing without -metrics")
	}

	// The telemetry endpoint, when asked for: every run mode below feeds
	// this registry (the default sweep meters the multithreaded world;
	// real and bonded runs meter their single world). finish replaces
	// os.Exit so the endpoint can linger past the sweep for scripted
	// scrapes before the process goes away.
	var metrics *telemetry.Registry
	if *metricsAddr != "" {
		metrics = telemetry.NewRegistry()
		// Process-wide metrics exist from the first scrape; node-keyed
		// ones appear when the metered world starts (the default sweep's
		// unmetered sequential baseline runs first).
		bufpool.RegisterMetrics(metrics)
		addr, _, err := telemetry.Serve(metrics, *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pingpong: metrics endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pingpong: serving telemetry on http://%s/metrics (JSON at /metrics.json)\n", addr)
	}
	finish := func(code int) {
		if metrics != nil && *linger > 0 {
			fmt.Printf("pingpong: holding telemetry endpoint for %v\n", *linger)
			time.Sleep(*linger)
		}
		os.Exit(code)
	}
	if *listen != "" && *connect != "" {
		fail("-listen and -connect are mutually exclusive: one process accepts, the other dials")
	}
	if real && railsSet {
		fail("-rails configures the simulated sweep; -listen/-connect/-shm replace the simulated rails with real transports, so the flags cannot be combined")
	}
	if rankSet && ((*shmDir == "" && *udpAddr == "") || bonded) {
		fail("-rank only selects a role under -shm alone or -udp (TCP and bonded runs infer the rank: -listen is 0, -connect is 1)")
	}
	if (*shmDir != "" || *udpAddr != "") && (*rank < 0 || *rank > 1) {
		fail(fmt.Sprintf("-rank %d: the two-process pingpong has ranks 0 and 1", *rank))
	}
	withSHM := true
	switch *rails {
	case "mx,shm":
	case "mx":
		withSHM = false
	default:
		fail(fmt.Sprintf("-rails %q: supported rail sets are \"mx\" and \"mx,shm\"", *rails))
	}

	if *nrank {
		finish(runNrank(*nrankDur, *quick, metrics))
	}
	if bonded {
		finish(runBonded(*listen, *connect, *shmDir, *quick, metrics))
	}
	if real {
		finish(runReal(*listen, *connect, *shmDir, *udpAddr, *rank, *quick, metrics))
	}

	var sizes []int
	for s := 8; s <= *max; s *= 2 {
		sizes = append(sizes, s)
	}
	fmt.Println(exp.FormatPingpong(exp.RunPingpongRails(core.Sequential, sizes, withSHM),
		"Pingpong, sequential baseline (original NewMadeleine)"))
	// Meter the PIOMan-enabled sweep: names are rank-keyed, so only one
	// world registers per process lifetime (the registry rejects
	// duplicates by design — silent double-counting would be worse).
	exp.Metrics = metrics
	fmt.Println(exp.FormatPingpong(exp.RunPingpongRails(core.Multithreaded, sizes, withSHM),
		"Pingpong, multithreaded engine (NewMadeleine + PIOMan)"))
	finish(0)
}

// fail prints a usage error and exits with the flag-error convention.
func fail(msg string) {
	fmt.Fprintf(os.Stderr, "pingpong: %s\n", msg)
	os.Exit(2)
}

// Real-mode protocol tags.
const (
	tagHello = 1 // rank 1 -> rank 0: opens the return path
	tagPing  = 2
	tagPong  = 3
	tagBye   = 4
)

// realSizes spans both protocols around the 32 KiB rendezvous threshold.
var realSizes = []int{64, 1 << 10, 4 << 10, 32 << 10, 64 << 10, 256 << 10}

// runReal executes one rank of the two-process pingpong over a real
// transport — TCP when listen/connect is set, shared-memory rings when
// shmDir is, reliable UDP datagrams when udpAddr is — and returns the
// process exit code. metrics, when non-nil, receives the world's
// engine/rail registrations (-metrics).
func runReal(listen, connect, shmDir, udpAddr string, cfgRank int, quick bool, metrics *telemetry.Registry) int {
	iters := 50
	if quick {
		iters = 5
	}
	// The engine dedicates goroutines to busy-polling (that is the
	// paper's design); with GOMAXPROCS at or below the spinner count a
	// woken socket reader waits out the runtime's ~10ms preemption tick
	// before it can deliver. Keep enough Ps that woken goroutines
	// schedule immediately even on small hosts.
	if runtime.GOMAXPROCS(0) < 6 {
		runtime.GOMAXPROCS(6)
	}

	var (
		ep   fabric.Endpoint
		rail nic.Params
		rank int
		err  error
	)
	switch {
	case udpAddr != "":
		rank = cfgRank
		rail = nic.UdpParams()
		var uep *udpfab.Endpoint
		if rank == 0 {
			uep, err = udpfab.New(udpfab.Config{Self: 0, Nodes: 2, Listen: udpAddr})
			if err == nil {
				// Rank 1 speaks first; the return path is learned from
				// its first valid datagram.
				fmt.Printf("pingpong: rank 0 listening on %s\n", uep.Addr())
			}
		} else {
			uep, err = udpfab.New(udpfab.Config{Self: 1, Nodes: 2, Peers: map[int]string{0: udpAddr}})
		}
		ep = uep
	case shmDir != "":
		rank = cfgRank
		rail = nic.ShmParams()
		ep, err = shmfab.New(shmfab.Config{Self: rank, Nodes: 2, Dir: shmDir})
		if err == nil {
			fmt.Printf("pingpong: rank %d on shared-memory rings in %s\n", rank, shmDir)
		}
	case listen != "":
		rail = nic.RealParams()
		var tep *tcpfab.Endpoint
		tep, err = tcpfab.New(tcpfab.Config{Self: 0, Nodes: 2, Listen: listen})
		if err == nil {
			fmt.Printf("pingpong: rank 0 listening on %s\n", tep.Addr())
			ep = tep
		}
	default:
		rank = 1
		rail = nic.RealParams()
		var tep *tcpfab.Endpoint
		tep, err = tcpfab.New(tcpfab.Config{Self: 1, Nodes: 2, Peers: map[int]string{0: connect}})
		if err == nil {
			// Fail fast on a bad address: without this the dial error
			// only surfaces as a silently dropped packet deep in the
			// engine, and the process hangs waiting for a reply.
			err = tep.Dial(0)
			ep = tep
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pingpong: %v\n", err)
		return 1
	}

	w := mpi.NewDistributed(mpi.Config{
		Mode:           core.Multithreaded,
		OffloadEager:   true,
		EnableBlocking: true,
		// Real transports progress through the §3.2 blocking fallback:
		// active polling would only steal CPU from the kernel (TCP) or
		// the peer process (shm) on small hosts.
		NoIdlePolling: true,
		Machine:       topo.Machine{Sockets: 1, CoresPerSocket: 2},
		Metrics:       metrics,
	}, rail, ep)
	defer w.Close()

	if !runSweep(w, rank, iters, rail.EagerMax) {
		return 1
	}
	fmt.Printf("pingpong: rank %d ok\n", rank)
	return 0
}

// maxRealSize is the echo buffer bound of the single-transport sweep.
func maxRealSize() int { return realSizes[len(realSizes)-1] }

// runSweep drives the warm-up plus timed eager/rendezvous exchanges on a
// two-rank distributed world and reports success. Rank 0 sweeps and
// prints; rank 1 echoes until the bye marker.
func runSweep(w *mpi.World, rank, iters, eagerMax int) bool {
	ok := true
	w.Node(rank).Run(func(p *mpi.Proc) {
		if rank == 1 {
			// Speaking first gives rank 0 its return path.
			p.Send(0, tagHello, []byte("hello"))
			echoUntilBye(p, maxRealSize(), nil)
			return
		}
		var b [8]byte
		p.Recv(1, tagHello, b[:5])
		// Rank 1 only exits on the bye marker; send it on every exit
		// path, including failures, so a corrupted run doesn't strand
		// the peer in its echo loop.
		defer p.Send(1, tagBye, []byte("bye"))
		for _, size := range realSizes {
			proto := "eager"
			if size > eagerMax {
				proto = "rendezvous"
			}
			msg := patterned(size)
			buf := make([]byte, size)
			// Warmup exchange, then the timed loop.
			p.Send(1, tagPing, msg)
			p.Recv(1, tagPong, buf)
			start := time.Now()
			for i := 0; i < iters; i++ {
				p.Send(1, tagPing, msg)
				n, _ := p.Recv(1, tagPong, buf)
				if n != size || !bytes.Equal(buf, msg) {
					fmt.Fprintf(os.Stderr, "pingpong: echo of %d bytes corrupted\n", size)
					ok = false
					return
				}
			}
			rtt := time.Since(start) / time.Duration(iters)
			fmt.Printf("pingpong: %-10s %8d B  rtt %10v  %8.1f MB/s\n",
				proto, size, rtt, 2*float64(size)/rtt.Seconds()/1e6)
		}
	})
	return ok
}

// echoUntilBye bounces pings back until the bye marker arrives. The
// request recycles through the engine freelist each turn (results are
// read out before Release), so the echo loop allocates nothing. onOther,
// when non-nil, gets first claim on every non-bye tag (the bonded mode's
// phase markers) — a tag it reports consumed is not echoed.
func echoUntilBye(p *mpi.Proc, bufSize int, onOther func(tag int, payload []byte) bool) {
	buf := make([]byte, bufSize)
	for {
		r := p.Irecv(0, core.AnyTag, buf)
		p.WaitRecv(r)
		tag, n := r.MatchedTag(), r.Len()
		r.Release()
		if tag == tagBye {
			return
		}
		if onOther != nil && onOther(tag, buf[:n]) {
			continue
		}
		p.Send(0, tagPong, buf[:n])
	}
}

// patterned fills a buffer with position-derived bytes so corruption and
// cross-size mixups are detectable.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 13)
	}
	return b
}
