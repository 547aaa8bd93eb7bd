package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// These checks hold the benchmark's own declarations together. None of
// them judges a timing: the windows are tens of milliseconds and only
// the presence of each metric is asserted.

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, wl := range workloads {
		name(wl.name)
		if wl.why == "" || len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.name, len(wl.why))
		}
	}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json, -list and the tables in
// spec.go name exactly the same workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	var list []string
	for _, w := range file.Workloads {
		list = append(list, "workload "+w.Name)
		if wl := findWorkload(w.Name); wl == nil || wl.why != w.Why {
			t.Errorf("workload %s: missing from spec.go or its why differs", w.Name)
		}
	}
	check := func(kind string, decls []metricDecl, got []metric) {
		if len(decls) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(decls))
			return
		}
		for i, d := range decls {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better ||
				(kind == "end_to_end") != (g.Bound != nil) || (g.Bound != nil && *g.Bound != d.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, d)
			}
			list = append(list, kind+" "+d.Name)
		}
	}
	check("end_to_end", endToEnd, file.EndToEnd)
	check("per_layer", perLayer, file.PerLayer)

	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(listing()), "\n") {
		f := strings.Fields(line)
		listed = append(listed, f[0]+" "+f[1])
	}
	if !reflect.DeepEqual(list, listed) {
		t.Errorf("-list and BENCHMARK.json differ:\n list %v\n json %v", listed, list)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	const win = 200 * time.Millisecond // 50 ms on each of the pass's four worlds
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			pass, decls := runUntraced, endToEnd
			if traced {
				pass, decls = runTraced, perLayer
			}
			res, err := pass(wl, 1, win)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", wl.name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", wl.name, traced, d.Name)
				}
			}
			if traced {
				var spans int
				for _, tr := range res.tracks {
					spans += len(tr.spans)
				}
				if spans == 0 {
					t.Errorf("%s: traced pass recorded no spans", wl.name)
				}
			}
		}
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	draw := func(seed int64) (sizes []int) {
		for batch := 0; batch < 64; batch++ {
			for slot := 0; slot < 16; slot++ {
				sizes = append(sizes, mixSize(seed, batch%2, batch, slot))
			}
		}
		return sizes
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("the same seed drew two size sequences")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("two seeds drew the same size sequence")
	}
	classes := map[int]int{}
	for _, s := range draw(7) {
		classes[s]++
	}
	if len(classes) != 4 || classes[small] < classes[large] {
		t.Errorf("size mix %v: want four classes, mostly %d B", classes, small)
	}
	a, b := patterns(7, 2, 256), patterns(7, 2, 256)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed built two patterns")
	}
	if reflect.DeepEqual(a, patterns(8, 2, 256)) || reflect.DeepEqual(a[0], a[1]) {
		t.Error("patterns do not depend on seed and slot")
	}
}

func TestVerifyFlagsCorruption(t *testing.T) {
	ref := patterns(3, 1, 4096)[0]
	msg := append([]byte(nil), ref...)
	stamp(msg, 42, 0, flagLast)
	if flags, err := verify(msg, len(msg), 42, 0, ref); err != nil || flags != flagLast {
		t.Fatalf("intact message: flags %d, err %v", flags, err)
	}
	for _, at := range []int{0, 9, 13, hdrLen, len(msg) / 2, len(msg) - 1} {
		bad := append([]byte(nil), msg...)
		bad[at] ^= 0x40
		if _, err := verify(bad, len(bad), 42, 0, ref); err == nil {
			t.Errorf("flipped byte at %d went unnoticed", at)
		}
	}
	if _, err := verify(msg[:len(msg)-1], len(msg), 42, 0, ref); err == nil {
		t.Error("short message went unnoticed")
	}
	if _, err := verify(msg, len(msg), 43, 0, ref); err == nil {
		t.Error("wrong sequence number went unnoticed")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// which the benchmark's driver uses for spread.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{8, 1, 7, 2, 6, 3, 5, 4})
	if q1 != 2.25 || q2 != 4.5 || q3 != 6.75 {
		t.Errorf("quartiles of 1..8 = %v %v %v, want 2.25 4.5 6.75", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20, 30, 40, 50})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles of 10..50 = %v %v %v, want 15 30 45", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "a_us", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "b_per_s", Better: "higher", Bound: 0.15}
	for _, c := range []struct {
		d    metricDecl
		a, b metricValue
		want string
	}{
		{lower, metricValue{Value: 100}, metricValue{Value: 105}, "same"},
		{lower, metricValue{Value: 100}, metricValue{Value: 120}, "worse"},
		{lower, metricValue{Value: 100}, metricValue{Value: 80}, "better"},
		{higher, metricValue{Value: 100}, metricValue{Value: 80}, "worse"},
		{higher, metricValue{Value: 100}, metricValue{Value: 120}, "better"},
		{higher, metricValue{Value: 100, Spread: 0.2}, metricValue{Value: 80}, "unresolved"},
		{higher, metricValue{Value: 100, Spread: 0.2, Samples: 16}, metricValue{Value: 80}, "worse"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
