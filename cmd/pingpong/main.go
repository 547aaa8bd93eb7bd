// Command pingpong runs the classic latency/bandwidth sweep: an example
// and integration driver for the full engine stack. It prints what it
// measures and asserts only correctness (every echo is compared byte for
// byte); the repo's benchmark is nmperf (bash benchmark/run.sh,
// BENCHMARK.json), not this command.
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
// Launched through cmd/nmrun (docs/CLUSTER.md), which exports the
// PIOMAN_* environment contract, it instead runs as one rank of a world
// of OS processes over the real transport nmrun's -fabric names:
//
//	nmrun -n 2 -fabric shm -- pingpong -quick
//	nmrun -n 4 -- pingpong                     # tcp, two pairs
//
// Ranks pair with their XOR-1 neighbor (0↔1, 2↔3, …). Each even rank
// sweeps the eager and rendezvous sizes against its partner, prints the
// first pass's table, and repeats the sweep until -duration has passed;
// the odd rank echoes. A closing allreduce folds the per-rank message
// rates into a cluster total over the survivor set: a rank whose partner
// dies mid-run reports core.ErrPeerDead and still exits 0, which is what
// nmrun's -kill-rank drill checks.
//
// Under -fabric tcp+shm the world bonds both real transports — the
// paper's multirail MX + shared-memory configuration, with real fabrics
// standing in — and each even rank follows its sweep with three phases
// (bonded.go): data over the tcp rail alone, over the shm rail alone,
// then striped across both, printing each phase's bandwidth and how many
// DATA packets each rail carried while striping.
//
// With -metrics the process serves its live telemetry registry over HTTP
// while the sweep runs — Prometheus text at /metrics, the full snapshot
// as JSON at /metrics.json (what cmd/nmtop polls):
//
//	pingpong -metrics 127.0.0.1:9377          # curl either endpoint mid-run
//
// In the default simulated sweep the multithreaded engine's world is the
// metered one (metric names are keyed by node rank, so one world owns
// the registry at a time); a rank meters its single world. -linger keeps
// the endpoint up for that long after the sweep finishes, so scripted
// scrapes (CI's telemetry smoke) never race the exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pioman/internal/core"
	"pioman/internal/exp"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/mpi"
	"pioman/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts")
	max := flag.Int("max", 1<<20, "largest message size of the simulated sweep")
	rails := flag.String("rails", "mx,shm", "simulated rails for the default sweep: \"mx\" or \"mx,shm\"; a rank launched by nmrun takes its rails from nmrun's -fabric instead")
	duration := flag.Duration("duration", 3*time.Second, "under nmrun: how long each even rank repeats the sweep, at least once (halved by -quick)")
	metricsAddr := flag.String("metrics", "", "serve live telemetry over HTTP on this address while the sweep runs: Prometheus text at /metrics, JSON at /metrics.json (port 0 picks one, printed on startup)")
	linger := flag.Duration("linger", 0, "with -metrics: keep the endpoint up this long after the sweep, so scripted scrapes never race the exit")
	flag.Parse()
	exp.Quick = *quick

	if *linger != 0 && *metricsAddr == "" {
		fail("-linger keeps the -metrics endpoint alive; it does nothing without -metrics")
	}
	_, ranked := os.LookupEnv(mpi.EnvRank)
	withSHM := true
	switch *rails {
	case "mx,shm":
	case "mx":
		withSHM = false
	default:
		fail(fmt.Sprintf("-rails %q: supported rail sets are \"mx\" and \"mx,shm\"", *rails))
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rails" && ranked {
			fail("-rails configures the simulated sweep; a rank launched by nmrun runs over nmrun's -fabric")
		}
	})

	// The telemetry endpoint, when asked for: both modes feed this
	// registry (the default sweep meters the multithreaded world, a rank
	// its single world). finish replaces os.Exit so the endpoint can
	// linger past the sweep for scripted scrapes before the process goes
	// away.
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

	if ranked {
		finish(runRank(*duration, *quick, metrics))
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
