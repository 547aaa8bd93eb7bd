// Command nmperf is the repository's full-stack benchmark: closed-loop
// workloads driven through mpi → core → piom → nic → fabric over real
// loopback transports, an end-to-end pass with tracing off and a traced
// pass that attributes time to layers. README.md documents the workloads,
// every metric, and how they interact.
//
// All traffic crosses loopback sockets or mmap'd ring files on one host,
// never a real link.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

var processStart = time.Now()

// fingerprint identifies where and how a result file was measured.
type fingerprint struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Fingerprint fingerprint   `json:"fingerprint"`
	Results     []*passResult `json:"results"`
}

func hostFingerprint(seed int64, win time.Duration) fingerprint {
	fp := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		Seed: seed, WindowS: win.Seconds(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all)")
		seed         = flag.Int64("seed", 1, "seed of message sizes and payload patterns")
		seconds      = flag.Float64("seconds", 10, "measured window of the end-to-end pass, in seconds")
		trace        = flag.String("trace", "both", "0: end-to-end pass, 1: traced per-layer pass, both")
		out          = flag.String("out", "", "write results as JSON to this file")
		spansOut     = flag.String("spans", "", "write the traced pass's spans as Chrome trace-event JSON to this file")
		repeat       = flag.Int("repeat", 1, "run this many result sets back to back (set k is written to <out>.<k>)")
		list         = flag.Bool("list", false, "list workloads and metrics and exit")
		compare      = flag.Bool("compare", false, "compare two sets of result files: -compare A.json B.json (each may be a quoted glob)")
	)
	flag.Parse()
	switch {
	case *list:
		fmt.Print(listing())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare A.json B.json (each may be a quoted glob)")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	run := workloads
	if *workloadName != "" {
		wl := findWorkload(*workloadName)
		if wl == nil {
			fatal(2, "unknown workload %q (see -list)", *workloadName)
		}
		run = []*workload{wl}
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatal(2, "-trace wants 0, 1 or both")
	}
	win := time.Duration(*seconds * float64(time.Second))
	if win <= 0 || *repeat < 1 {
		fatal(2, "-seconds and -repeat must be positive")
	}

	fmt.Printf("nmperf: 2 in-process ranks, 1 generator thread each, GOMAXPROCS %d on %d CPUs; seed %d, window %v\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, win)
	fmt.Println("nmperf: all traffic crosses loopback sockets or mmap'd ring files on this host, never a real link")
	ok := true
	var last *passResult
	for set := 1; set <= *repeat; set++ {
		file := resultFile{Fingerprint: hostFingerprint(*seed, win)}
		var tracks []spanTrack
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			for _, wl := range run {
				pass := runUntraced
				if traced {
					pass = runTraced
				}
				res, err := pass(wl, *seed, win)
				if err != nil {
					fmt.Fprintf(os.Stderr, "nmperf: %v\n", err)
					if errors.Is(err, errHung) {
						// The hung ranks still hold the world; nothing can be torn down.
						fmt.Fprintf(os.Stderr, "nmperf: %s: %d attempted, %d failed\n", wl.name, res.Attempted, res.Failed)
						os.Exit(1)
					}
				}
				ok = ok && res.Correct
				printPass(res)
				file.Results = append(file.Results, res)
				tracks = append(tracks, res.tracks...)
				last = res
			}
		}
		if *out != "" {
			if err := writeJSON(setPath(*out, set, *repeat), file); err != nil {
				fatal(1, "%v", err)
			}
		}
		if *spansOut != "" && len(tracks) > 0 {
			if err := writeSpans(setPath(*spansOut, set, *repeat), tracks); err != nil {
				fatal(1, "%v", err)
			}
		}
	}
	if len(run) == 1 && *trace != "both" && *repeat == 1 {
		printContractLine(last)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nmperf: "+format+"\n", args...)
	os.Exit(code)
}

// setPath names result set k of n: the path itself for a single set,
// otherwise with .k before the extension.
func setPath(path string, k, n int) string {
	if n == 1 {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%d%s", strings.TrimSuffix(path, ext), k, ext)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpans(path string, tracks []spanTrack) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, tracks); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printPass prints one pass's metrics by name with unit, in declared order.
func printPass(r *passResult) {
	decls, pass := endToEnd, "end-to-end"
	if r.Traced {
		decls, pass = perLayer, "per-layer"
	}
	fmt.Printf("\n%s  [%s]  attempted %d  failed %d  ops_failed_share %g\n",
		r.Workload, pass, r.Attempted, r.Failed, share(float64(r.Failed), float64(r.Attempted)))
	for _, d := range decls {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %16.4f %-6s", d.Name, m.Value, m.Unit)
		if !r.Traced {
			line += fmt.Sprintf("  spread %5.1f%% of %2d  bound %2.0f%%", m.Spread*100, m.Samples, d.Bound*100)
		}
		fmt.Println(line)
	}
}

// printContractLine prints the single JSON object the benchmark's driver
// reads from the last line of standard output.
func printContractLine(r *passResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("%s\n", b)
}
