// Command benchcompare guards against hot-path performance regressions
// between two benchmark snapshots produced by `make bench-record`. It
// parses the raw `go test -bench` output embedded in each snapshot's
// go_bench field, matches benchmarks by name, and fails (exit 1) if any
// benchmark selected by -filter slowed down by more than -threshold.
//
//	benchcompare -old BENCH_pr10.json -new .bench_build/BENCH_head.json
//	benchcompare -filter '.' -threshold 0.25   # everything, looser bar
//
// The default filter covers three benchmark families: the
// protocol-engine microbenchmarks (deterministic single-goroutine
// loops), the live-cluster member hot paths (sharded local grants and
// the journaled durable grant), and the simulator figure benchmarks
// (seeded, so their virtual workloads are identical run to run). The
// remaining benchmarks — ablations and parallelism sweeps — are
// reported but not gated.
//
// Snapshots are recorded in different sessions on unpinned, shared
// hardware, so the two snapshots never see the same machine: frequency
// scaling, co-tenants and kernel version all move every ns/op number by
// the same multiplicative factor. Comparing raw ns/op across sessions
// therefore flags phantom regressions (or hides real ones) whenever the
// machine state shifted between recordings. The gate instead estimates
// that drift as the median new/old ratio across the *gated* benchmarks
// and divides it out before applying -threshold, so only benchmarks
// that slowed down relative to their own cohort fail the gate. The
// gated set is the right drift sample because drift is not uniform
// across benchmark classes: nanosecond-scale register loops (the
// codec and counter benches) barely feel co-tenant cache and allocator
// pressure, while the allocation-heavy hot paths all feel it together —
// mixing the two biases the estimate low and flags phantom cohort-wide
// regressions. The blind spot is a genuine slowdown spread evenly
// across more than half of the gated benchmarks — indistinguishable
// from drift without pinned hardware — which is why the drift factor is
// printed prominently and -normalize=false restores raw gating.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type snapshot struct {
	GitRev  string `json:"git_rev"`
	GoBench string `json:"go_bench"`
}

// benchLine matches e.g.
//
//	BenchmarkQueueChurn-4   1000000   1234 ns/op   16 B/op   1 allocs/op
//
// The first capture is the name with the trailing -GOMAXPROCS suffix
// stripped, the second the full printed name.
var benchLine = regexp.MustCompile(`^((Benchmark\S+?)(?:-\d+)?)\s+\d+\s+([0-9.]+) ns/op`)

// parseBench folds raw `go test -bench` output into ns/op per name.
//
// Two wrinkles. With GOMAXPROCS=1 Go prints no -procs suffix, so the
// stripper can eat a numeric sub-benchmark suffix instead and collapse
// e.g. goroutines-1/-4/-16 into one key; when several *distinct*
// printed names collide on a stripped key, the full names win. And
// `-count=N` repeats every benchmark: repeats keep the minimum, the
// run least disturbed by scheduler and background load.
func parseBench(raw string) map[string]float64 {
	type sample struct {
		full string
		ns   float64
	}
	byStripped := make(map[string][]sample)
	for _, line := range strings.Split(raw, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		byStripped[m[2]] = append(byStripped[m[2]], sample{full: m[1], ns: ns})
	}
	out := make(map[string]float64)
	keep := func(name string, ns float64) {
		if prev, ok := out[name]; !ok || ns < prev {
			out[name] = ns
		}
	}
	for stripped, samples := range byStripped {
		distinct := make(map[string]bool)
		for _, s := range samples {
			distinct[s.full] = true
		}
		for _, s := range samples {
			if len(distinct) > 1 {
				keep(s.full, s.ns)
			} else {
				keep(stripped, s.ns)
			}
		}
	}
	return out
}

// driftFactor estimates the machine-state drift between two recording
// sessions as the median new/old ns/op ratio over the benchmarks that
// are present in both snapshots and match gate (the cohort being
// compared; nil means all shared benchmarks). The median (not the
// mean) so that a few genuinely regressed benchmarks — the very thing
// the gate exists to catch — cannot drag the estimate toward
// themselves. Returns 1 when no shared benchmark matches.
func driftFactor(oldBench, newBench map[string]float64, gate *regexp.Regexp) float64 {
	var ratios []float64
	for name, oldNs := range oldBench {
		if gate != nil && !gate.MatchString(name) {
			continue
		}
		if newNs, ok := newBench[name]; ok && oldNs > 0 {
			ratios = append(ratios, newNs/oldNs)
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 1 {
		return ratios[mid]
	}
	return (ratios[mid-1] + ratios[mid]) / 2
}

func load(path string) (*snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.GoBench == "" {
		return nil, fmt.Errorf("%s: no go_bench section (recorded with -bench=false?)", path)
	}
	return &s, nil
}

func main() {
	var (
		oldPath   = flag.String("old", "BENCH_pr10.json", "baseline snapshot")
		newPath   = flag.String("new", ".bench_build/BENCH_head.json", "candidate snapshot")
		threshold = flag.Float64("threshold", 0.10, "max allowed ns/op regression (fraction)")
		normalize = flag.Bool("normalize", true,
			"divide out the median new/old ratio (cross-session machine drift) before gating")
		filter = flag.String("filter",
			"LocalAcquireRelease|RequestGrantRoundTrip|QueueChurn|Fingerprint|"+
				"MemberMultiLockContended|MemberJournaledGrant|LiveClusterThroughput|"+
				"Fig5MessageOverhead|Fig6LatencyFactor|Fig7Breakdown",
			"regexp selecting which benchmarks gate the comparison")
	)
	flag.Parse()

	gate, err := regexp.Compile(*filter)
	if err != nil {
		fatalf("bad -filter: %v", err)
	}
	oldSnap, err := load(*oldPath)
	if err != nil {
		fatalf("%v", err)
	}
	newSnap, err := load(*newPath)
	if err != nil {
		fatalf("%v", err)
	}
	oldBench := parseBench(oldSnap.GoBench)
	newBench := parseBench(newSnap.GoBench)
	if len(oldBench) == 0 || len(newBench) == 0 {
		fatalf("no benchmark lines parsed (old %d, new %d)", len(oldBench), len(newBench))
	}

	fmt.Printf("benchcompare: %s (%s) -> %s (%s), gating on /%s/ at %+.0f%%\n",
		*oldPath, rev(oldSnap), *newPath, rev(newSnap), *filter, *threshold*100)

	drift := 1.0
	if *normalize {
		shared := 0
		for name := range oldBench {
			if _, ok := newBench[name]; ok && gate.MatchString(name) {
				shared++
			}
		}
		drift = driftFactor(oldBench, newBench, gate)
		fmt.Printf("benchcompare: machine-drift factor x%.3f (median new/old over %d shared gated benchmarks); gating drift-adjusted deltas\n",
			drift, shared)
	}

	names := make([]string, 0, len(oldBench))
	for name := range oldBench {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	for _, name := range names {
		oldNs := oldBench[name]
		newNs, ok := newBench[name]
		if !ok {
			fmt.Printf("  MISSING  %-50s baseline %.1f ns/op, absent in candidate\n", name, oldNs)
			continue
		}
		delta := (newNs - oldNs) / oldNs
		adjusted := newNs/oldNs/drift - 1
		gated := gate.MatchString(name)
		status := "ok      "
		if gated && adjusted > *threshold {
			status = "REGRESSED"
			failed++
		} else if !gated {
			status = "info    "
		}
		fmt.Printf("  %s %-50s %10.1f -> %10.1f ns/op  (%+.1f%% raw, %+.1f%% vs drift)\n",
			status, name, oldNs, newNs, delta*100, adjusted*100)
	}
	for name := range newBench {
		if _, ok := oldBench[name]; !ok && gate.MatchString(name) {
			fmt.Printf("  NEW      %-50s %.1f ns/op (no baseline)\n", name, newBench[name])
		}
	}
	if failed > 0 {
		fatalf("%d gated benchmark(s) regressed more than %.0f%% beyond the x%.3f drift factor",
			failed, *threshold*100, drift)
	}
	fmt.Println("benchcompare: no gated regressions")
}

func rev(s *snapshot) string {
	if s.GitRev == "" {
		return "?"
	}
	return s.GitRev
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchcompare: "+format+"\n", args...)
	os.Exit(1)
}
