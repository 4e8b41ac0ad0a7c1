// Command benchrecord captures a benchmark snapshot of the current
// tree: the paper's Figure 5/6/7 simulations as CSV plus the Go
// microbenchmark output for the hot-path packages, bundled into one
// JSON file so a change can be compared with the committed baseline
// (`make bench-record` writes .bench_build/BENCH_head.json).
//
//	benchrecord -o .bench_build/BENCH_head.json
//	benchrecord -nodes 2,8,16,32,64,120 -duration 300s   # full paper sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hierlock/internal/experiment"
	"hierlock/internal/metrics"
)

type record struct {
	GeneratedAt string `json:"generated_at"`
	GitRev      string `json:"git_rev,omitempty"`
	GoVersion   string `json:"go_version"`
	// Config echoes the sweep parameters so two snapshots are only
	// compared when they measured the same thing.
	Config struct {
		Nodes    []int  `json:"nodes"`
		Duration string `json:"duration"`
		Warmup   string `json:"warmup"`
		Seed     int64  `json:"seed"`
	} `json:"config"`
	// FiguresCSV maps fig5/fig6/fig7 to the CSV the simulator produced.
	FiguresCSV map[string]string `json:"figures_csv"`
	// GoBench is the raw `go test -bench` output (empty with -bench=false).
	GoBench string `json:"go_bench,omitempty"`
}

func main() {
	var (
		out      = flag.String("o", ".bench_build/BENCH_head.json", "output file (- for stdout)")
		nodes    = flag.String("nodes", "2,8,16,32", "comma-separated node counts for the figure sweeps")
		duration = flag.Duration("duration", 60*time.Second, "virtual measurement window per cell")
		warmup   = flag.Duration("warmup", 10*time.Second, "virtual warmup per cell")
		seed     = flag.Int64("seed", 1, "simulation seed")
		bench    = flag.Bool("bench", true, "also run go test -bench over the hot-path packages")
		count    = flag.Int("count", 6, "go test -count for the bench run (benchcompare gates on the best of N; on shared hardware the min needs several repeats to converge)")
	)
	flag.Parse()

	cfg := experiment.Config{Duration: *duration, Warmup: *warmup, Seed: *seed}
	for _, part := range strings.Split(*nodes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fatalf("invalid -nodes value %q", part)
		}
		cfg.NodeCounts = append(cfg.NodeCounts, n)
	}

	var rec record
	rec.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rec.GoVersion = runtime.Version()
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rec.GitRev = strings.TrimSpace(string(rev))
	}
	rec.Config.Nodes = cfg.NodeCounts
	rec.Config.Duration = duration.String()
	rec.Config.Warmup = warmup.String()
	rec.Config.Seed = *seed
	rec.FiguresCSV = make(map[string]string)

	figures := []struct {
		name string
		run  func(experiment.Config) (*metrics.Table, error)
	}{
		{"fig5", experiment.Figure5},
		{"fig6", experiment.Figure6},
		{"fig7", experiment.Figure7},
	}
	for _, f := range figures {
		fmt.Fprintf(os.Stderr, "benchrecord: running %s (nodes %v)...\n", f.name, cfg.NodeCounts)
		t, err := f.run(cfg)
		if err != nil {
			fatalf("%s: %v", f.name, err)
		}
		rec.FiguresCSV[f.name] = t.CSV()
	}

	if *bench {
		// -count repeats every benchmark; benchcompare takes the fastest
		// run per name, which filters scheduler and load noise out of the
		// whole-system benches without touching the deterministic ones.
		args := []string{"test", "-run", "^$", "-bench", ".", "-benchmem",
			"-count", strconv.Itoa(*count),
			".", "./internal/hlock", "./internal/metrics", "./internal/trace", "./internal/proto", "./internal/session"}
		fmt.Fprintf(os.Stderr, "benchrecord: go %s\n", strings.Join(args, " "))
		b, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			fatalf("go test -bench: %v\n%s", err, b)
		}
		rec.GoBench = string(b)
	}

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "benchrecord: wrote %s (%d bytes)\n", *out, len(buf))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchrecord: "+format+"\n", args...)
	os.Exit(1)
}
