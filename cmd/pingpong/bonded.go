package main

// Bonded phases: under nmrun -fabric tcp+shm the world runs over BOTH
// real transports at once — a tcpfab rail (the default rail, carrying
// eager traffic and the rendezvous handshake) bonded with a shmfab rail
// — which is the reproduction's analog of the paper's multirail MX +
// shared-memory configuration, §4.3, on real fabrics.
//
// After its sweep, each even rank compares the rails at the rendezvous
// sizes three times: data over the TCP rail alone, then over the shm
// rail alone — the other rail's stripe weight set to zero, which takes
// it out of striping — then striped across both. The two single-rail
// phases double as calibration: each rail's measured bandwidth becomes
// its striping weight (Driver.SetStripeWeight) for the multirail phase,
// so the split matches this host's actual rails rather than the preset
// seeds. The rank finally prints the three bandwidths side by side and
// how many DATA packets each rail carried during the multirail phases —
// the causal evidence that striping used both rails, exact on any host,
// where "multirail beats the best single rail" is a wall-clock race that
// only a host with cores to drive both rails at once can win.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"pioman/internal/core"
	"pioman/internal/nic"
)

// tagPhase carries phase-control markers from the even rank to its
// echoing partner: the two rails' striping weights for the next phase.
const tagPhase = 5

// bondedSizes are the rendezvous sizes the single-rail and multirail
// phases are compared at: the sweep's large-message regime (the biggest
// size the sweep runs, above the engine's 128 KiB striping threshold;
// everything smaller rides the tcp rail).
var bondedSizes = []int{256 << 10}

// bondedRounds repeats the phase cycle and keeps each cell's best p50:
// single-shot medians on a shared host are too noisy to compare rails by.
const bondedRounds = 2

// phaseRTT holds one phase's best-of-rounds median round trip per size.
// Phases are named by the rail that carries the data alone; "" is the
// striped phase.
type phaseRTT map[int]time.Duration

// bondedPhases drives the even rank's calibrate/stripe/compare cycle
// over the rendezvous sizes and prints its summary.
func bondedPhases(x *pair, quick bool) error {
	iters := 40
	if quick {
		iters = 10
	}
	results := map[string]phaseRTT{"tcp": {}, "shm": {}, "": {}}
	// DATA packets each rail sent from this rank while striping was on.
	striped := map[string]uint64{}
	eng := x.p.Node.Eng
	// The striping weights: the presets' seeds until the first
	// calibration.
	weights := map[string]float64{"tcp": nic.RealParams().StripeWeight, "shm": nic.ShmParams().StripeWeight}
	for round := 0; round < bondedRounds; round++ {
		for _, phase := range []string{"tcp", "shm", ""} {
			if phase != "" {
				// A solo phase: the other rail's weight is zero.
				solo := map[string]float64{"tcp": 0, "shm": 0}
				solo[phase] = weights[phase]
				if err := bondedSetPhase(x, solo); err != nil {
					return err
				}
			}
			before := railDataSent(eng)
			for _, size := range bondedSizes {
				measured, err := bondedTimeSize(x, size, iters)
				if err != nil {
					return err
				}
				if best, seen := results[phase][size]; !seen || measured < best {
					results[phase][size] = measured
				}
				printPhaseRow(phase, size, measured)
			}
			if phase == "" {
				for name, sent := range railDataSent(eng) {
					striped[name] += sent - before[name]
				}
			}
			if phase == "shm" {
				// Calibration done for this round: reseed the striping
				// weights from the bandwidths just measured, on both
				// ranks, before the multirail phase.
				top := bondedSizes[len(bondedSizes)-1]
				weights["tcp"] = bondedBW(top, results["tcp"][top])
				weights["shm"] = bondedBW(top, results["shm"][top])
				if err := bondedSetPhase(x, weights); err != nil {
					return err
				}
				fmt.Printf("pingpong: measured rail weights  tcp %.0f MB/s  shm %.0f MB/s\n", weights["tcp"], weights["shm"])
			}
		}
	}

	for _, size := range bondedSizes {
		fmt.Printf("pingpong: bonded %8d B: multirail %.1f MB/s, tcp-only %.1f MB/s, shm-only %.1f MB/s\n",
			size, bondedBW(size, results[""][size]),
			bondedBW(size, results["tcp"][size]), bondedBW(size, results["shm"][size]))
	}
	fmt.Printf("pingpong: multirail DATA packets sent  tcp %d  shm %d\n", striped["tcp"], striped["shm"])
	return nil
}

// railDataSent snapshots each rail's DATA-packet send counter by name.
func railDataSent(eng *core.Engine) map[string]uint64 {
	sent := map[string]uint64{}
	for _, rail := range eng.Rails() {
		sent[rail.Name()] = rail.Stats().DataSent
	}
	return sent
}

// printPhaseRow prints one phase's round trip at one size, labelled
// "<rail>-only" for a solo phase and multirail for the striped one.
func printPhaseRow(phase string, size int, rtt time.Duration) {
	if phase == "" {
		fmt.Printf("pingpong: multirail  %8d B  rtt p50 %10v  %8.1f MB/s\n", size, rtt, bondedBW(size, rtt))
		return
	}
	fmt.Printf("pingpong: %-10s %8d B  rtt p50 %10v  %8.1f MB/s\n", phase+"-only", size, rtt, bondedBW(size, rtt))
}

// bondedBW converts an echo round trip into MB/s of payload bandwidth
// (the payload crosses the wire twice per RTT).
func bondedBW(size int, rtt time.Duration) float64 {
	if rtt <= 0 {
		return 0
	}
	return 2 * float64(size) / rtt.Seconds() / 1e6
}

// bondedTimeSize runs warm-up plus iters timed echoes of one size and
// returns the median round trip.
func bondedTimeSize(x *pair, size, iters int) (time.Duration, error) {
	msg, buf := patterned(size), make([]byte, size)
	samples := make([]time.Duration, iters)
	for i := -2; i < iters; i++ { // two warm-up exchanges
		t0 := time.Now()
		if err := x.exchange(msg, buf); err != nil {
			return 0, err
		}
		if i >= 0 {
			samples[i] = time.Since(t0)
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[iters/2], nil
}

// bondedSetPhase applies a phase switch on both ranks: each rail's
// striping weight by name, zero taking the rail out of striping. The
// local engine switches immediately; the partner switches when the
// marker reaches the front of its echo loop, which is ordered before
// every later ping.
func bondedSetPhase(x *pair, weights map[string]float64) error {
	applyPhase(x.p.Node.Eng, weights)
	marker := fmt.Sprintf("tcp=%g;shm=%g", weights["tcp"], weights["shm"])
	return x.p.SendErr(x.partner, tagPhase, []byte(marker))
}

// applyPhase sets an engine's rail weights by rail name.
func applyPhase(eng *core.Engine, weights map[string]float64) {
	for _, rail := range eng.Rails() {
		if w, ok := weights[rail.Name()]; ok {
			rail.SetStripeWeight(w)
		}
	}
}

// parsePhaseMarker decodes a tagPhase payload into weights by rail name.
func parsePhaseMarker(s string) map[string]float64 {
	weights := map[string]float64{}
	for _, kv := range strings.Split(s, ";") {
		if name, val, ok := strings.Cut(kv, "="); ok {
			weights[name], _ = strconv.ParseFloat(val, 64)
		}
	}
	return weights
}
