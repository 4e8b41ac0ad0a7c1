// Command hlload is the repository's end-to-end benchmark: four seeded
// workloads against a real 3-node loopback-TCP hierlock cluster with
// journals on, wired as cmd/lockd wires it, plus (with -trace 1) the
// per-layer counters, the layer ladder and the stand-alone probes. See
// bench/README.md.
//
// With -workload it runs that one workload in this process and prints the
// result as the last line of standard output. Without, it re-executes
// itself once per workload (so heap, RSS, CPU accounting, ports and
// journal directories are per workload) and prints them all; -aa N runs
// two interleaved sets of N such passes and fails if identical code
// disagrees with itself by more than a metric's bound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"text/tabwriter"
	"time"
)

// setupRepeats is how many times a plain run sets the system up; setup_s
// is their median. One bring-up is a handful of scheduler-sensitive
// steps; three make the figure repeat.
const setupRepeats = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line before it: where and on what the numbers were taken.
type detail struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Cycles   int    `json:"cycles"`
	Samples  uint64 `json:"latency_samples"`
	// Raw is the measured run as the clock read it, before scaling to
	// the reference's nominal speed, and the reference's own readings.
	Raw map[string]float64 `json:"raw,omitempty"`
	// CycleLog is every cycle, raw: ops/s, p50 µs, p99 µs, CPU µs per op,
	// then the reference's ns per kernel step.
	CycleLog   [][5]float64 `json:"cycle_log,omitempty"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Go         string       `json:"go"`
	Rev        string       `json:"rev"`
	Problems   []string     `json:"problems,omitempty"`
	// ProcsSkipped is why the real-process cross-check did not run (its
	// metrics are then 0).
	ProcsSkipped string `json:"procs_skipped,omitempty"`
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	aa        int
	outDir    string
	moduleDir string
}

func main() {
	var o options
	var trace int
	var traced bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process (default: all four, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated op sequences")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per workload, cut into 0.55 s cycles of reference reading and workload slice")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer metrics (counters, ladder, probes) instead of the end-to-end ones")
	flag.BoolVar(&traced, "traced", false, "same as -trace 1")
	flag.IntVar(&o.aa, "aa", 0, "A/A check: run two interleaved sets of this many suite runs and fail if the sets' medians disagree beyond a metric's bound")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for the ladder's span files")
	flag.StringVar(&o.moduleDir, "moddir", defaultModuleDir(), "directory of the benchmark's Go module (where cmd/lockd is built from)")
	flag.Parse()
	o.traced = traced || trace != 0
	if o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "hlload: -seconds must be at least 1 and there are no positional arguments")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if o.workload != "" {
		err = runOne(ctx, o, os.Stdout)
	} else {
		err = runSuite(ctx, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hlload:", err)
		stop()
		os.Exit(1)
	}
}

func defaultModuleDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench"
	}
	return "."
}

// errIncorrect marks a run that completed but failed a correctness check;
// its result line has been printed.
var errIncorrect = errors.New("correctness check failed")

// runOne runs one workload in this process and prints its detail and
// result lines to w.
func runOne(ctx context.Context, o options, w io.Writer) error {
	d := detail{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Rev: vcsRevision(),
	}
	var res result
	var err error
	if o.traced {
		res, err = runTraced(ctx, o, &d)
	} else {
		res, err = runPlain(ctx, o, &d)
	}
	if err != nil {
		return err
	}
	printTable(os.Stderr, &d, res)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]detail{"detail": d}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %w: %v", o.workload, errIncorrect, d.Problems)
	}
	return nil
}

// runPlain is the end-to-end run: tracing and counter reads off.
func runPlain(ctx context.Context, o options, d *detail) (result, error) {
	spec := runSpec{workload: o.workload, seed: o.seed, warmup: warmupOps}
	var setups []float64
	var problems []string
	// The extra set-ups are complete runs with no measured part, so
	// they end with the same correctness checks.
	for i := 0; i < setupRepeats-1; i++ {
		r, err := runWorkload(ctx, spec)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, r.setupS())
		problems = append(problems, r.problems...)
	}
	spec.cycles = cyclesFor(time.Duration(o.seconds) * time.Second)
	r, err := runWorkload(ctx, spec)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, r.setupS())
	d.record(r)
	d.Problems = append(problems, r.problems...)
	return result{
		Correct: r.correct() && len(problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: withUnits(endToEnd, map[string]float64{
			"ops_per_s":     r.opsPerS(),
			"lock_p50_us":   r.p50US(),
			"cpu_us_per_op": r.cpuUSPerOp(),
			"peak_rss_mb":   r.peakRSSMB,
			"setup_s":       median(setups),
		}),
	}, nil
}

// runTraced is the per-layer run. It spends the same --seconds on five
// things: the workload with the layers' counters read around it, the
// telemetry attached/detached pair, the real-process cross-check, the
// layer ladder and the probes.
func runTraced(ctx context.Context, o options, d *detail) (result, error) {
	total := time.Duration(o.seconds) * time.Second
	values := map[string]float64{}
	spec := runSpec{workload: o.workload, seed: o.seed, cycles: cyclesFor(total / 3), warmup: warmupOps, layers: true}
	r, err := runWorkload(ctx, spec)
	if err != nil {
		return result{}, err
	}
	d.record(r)
	d.Problems = r.problems
	r.layers.metrics(r.samples, values)
	values["client.fail_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	values["client.lock_p99_us"] = r.p99US()

	// telemetry.ops_ratio: airline-table (the telemetry-heaviest
	// workload) with lockd's telemetry attached ÷ detached.
	var pair [2]float64
	for i, detached := range []bool{false, true} {
		tr, err := runWorkload(ctx, runSpec{workload: wlAirline, seed: o.seed, cycles: cyclesFor(total / 6),
			warmup: warmupOps / 10, detached: detached})
		if err != nil {
			return result{}, fmt.Errorf("telemetry pair: %w", err)
		}
		d.Problems = append(d.Problems, tr.problems...)
		pair[i] = tr.opsPerS()
	}
	values["telemetry.ops_ratio"] = ratio(pair[0], pair[1])

	d.ProcsSkipped, err = runProcs(ctx, o.moduleDir, o.seed, total/5, values)
	if err != nil {
		return result{}, err
	}
	if d.ProcsSkipped != "" {
		fmt.Fprintln(os.Stderr, "hlload: real-process cross-check skipped:", d.ProcsSkipped)
	}

	ladder, err := runLadder(o.seed, ladderOps(o.seconds), o.outDir)
	if err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}
	ladder.metrics(values)
	values["trace.overhead_ratio.local"] = ladder.overhead("ladder.local.tcp")
	values["trace.overhead_ratio.remote"] = ladder.overhead("ladder.remote.lockserver")

	if err := runProbes(values); err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	// WALBytes is the current file size and restarts at every snapshot, so
	// the measured part's bytes are its records times the probed record size.
	values["journal.wal_bytes_per_op"] = values["journal.records_per_op"] * values["journal.bytes_per_record"]

	return result{
		Correct: r.correct() && len(d.Problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: withUnits(perLayer, values),
	}, nil
}

// record notes the measured run before scaling: cycle medians as the
// clock read them, the reference's readings against nominal, and every
// cycle, so the scaling can be checked or undone.
func (d *detail) record(r *runResult) {
	d.Cycles, d.Samples = len(r.cycles), r.samples
	d.Raw = map[string]float64{
		"ops_per_s":     r.over(func(c cycleStats) float64 { return c.opsPerS }),
		"lock_p50_us":   r.over(func(c cycleStats) float64 { return c.p50 / 1000 }),
		"lock_p99_us":   r.over(func(c cycleStats) float64 { return c.p99 / 1000 }),
		"cpu_us_per_op": r.over(func(c cycleStats) float64 { return c.cpuPerOp / 1000 }),
		"setup_s":       r.setup.Seconds(),
		"ref_speed":     r.over(func(c cycleStats) float64 { return c.ref.speed() }),
	}
	for _, c := range r.cycles {
		d.CycleLog = append(d.CycleLog, [5]float64{c.opsPerS, c.p50 / 1000, c.p99 / 1000, c.cpuPerOp / 1000, float64(c.ref)})
	}
}

// ladderOps sizes the ladder to the run: the issue's 50 000 ops per rung
// at full length, fewer when --seconds is short.
func ladderOps(seconds int) int {
	n := seconds * 400
	if n > 50_000 {
		n = 50_000
	}
	return n
}

// withUnits renders exactly the declared metrics, each with its unit.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, def := range defs {
		out[def.name] = metricValue{Value: values[def.name], Unit: def.unit}
	}
	return out
}

func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printTable is the human-readable form of one run.
func printTable(w io.Writer, d *detail, res result) {
	defs := endToEnd
	if d.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n%s  seed=%d  %d s in %d cycles  %d latency samples  attempted=%d failed=%d correct=%v\n",
		d.Workload, d.Seed, d.Seconds, d.Cycles, d.Samples, res.Attempted, res.Failed, res.Correct)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, def := range defs {
		fmt.Fprintf(tw, "  %s\t%.4g\t%s\n", def.name, res.Metrics[def.name].Value, def.unit)
	}
	tw.Flush()
	for _, p := range d.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
}

// suiteRun is one child's parsed output.
type suiteRun struct {
	Detail detail `json:"detail"`
	Result result `json:"result"`
}

// runChild re-executes this binary for one workload and parses the two
// lines it prints. The child's table goes straight to our stderr.
func runChild(ctx context.Context, o options, workload string) (suiteRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return suiteRun{}, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-out", o.outDir, "-moddir", o.moduleDir)
	// On interrupt let the child clean up its temp dirs and listeners
	// itself (it gets the terminal's SIGINT too) instead of killing it.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 15 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return suiteRun{}, fmt.Errorf("%s: child printed no result (%v)", workload, runErr)
	}
	var run suiteRun
	var wrapped map[string]detail
	if err := json.Unmarshal(lines[len(lines)-2], &wrapped); err != nil {
		return suiteRun{}, fmt.Errorf("%s: detail line: %w", workload, err)
	}
	run.Detail = wrapped["detail"]
	if err := json.Unmarshal(lines[len(lines)-1], &run.Result); err != nil {
		return suiteRun{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if runErr != nil || !run.Result.Correct {
		return run, fmt.Errorf("%s: %w (child: %v)", workload, errIncorrect, runErr)
	}
	return run, nil
}

// aaRow compares one metric of one workload between the two A/A sets.
type aaRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Values   [2]float64 `json:"medians"` // set A, set B
	Worse    float64    `json:"worse"`   // how much worse the worse set's median is, as a share of the better
	Bound    float64    `json:"bound"`
	OK       bool       `json:"ok"`
}

// compareAA builds the A/A table. The runs of a workload alternate
// between set A and set B; as when two commits are compared, each set is
// summed up by its median, and identical code must agree with itself
// within each end-to-end metric's bound.
func compareAA(runs map[string][]suiteRun) []aaRow {
	var rows []aaRow
	for _, wl := range workloadNames {
		for _, def := range endToEnd {
			var sets [2][]float64
			for i, run := range runs[wl] {
				sets[i%2] = append(sets[i%2], run.Result.Metrics[def.name].Value)
			}
			row := aaRow{Workload: wl, Metric: def.name, Bound: def.bound,
				Values: [2]float64{median(sets[0]), median(sets[1])}}
			lo, hi := row.Values[0], row.Values[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			row.Worse = ratio(hi, lo) - 1
			row.OK = lo > 0 && row.Worse <= def.bound
			rows = append(rows, row)
		}
	}
	return rows
}

// runSuite runs every workload in a child process of its own; with -aa N,
// 2N times over, alternating between two sets (A, B, A, B ...): a shared
// machine drifts over minutes, only adjacent runs are comparable.
func runSuite(ctx context.Context, o options, w io.Writer) error {
	rounds := 2 * o.aa
	if rounds < 1 {
		rounds = 1
	}
	if o.aa > 0 && o.traced {
		return errors.New("-aa compares end-to-end metrics; run it without -traced")
	}
	runs := map[string][]suiteRun{}
	var failed []error
	for _, wl := range workloadNames {
		for k := 0; k < rounds; k++ {
			run, err := runChild(ctx, o, wl)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil {
				failed = append(failed, err)
			}
			runs[wl] = append(runs[wl], run)
		}
	}
	out := map[string]any{"runs": runs}
	if o.aa > 0 {
		rows := compareAA(runs)
		out["aa"] = rows
		tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "\nA/A: two sets of %d runs, medians\nworkload\tmetric\tA\tB\tworse by\tbound\t\n", o.aa)
		for _, row := range rows {
			verdict := "ok"
			if !row.OK {
				verdict = "DISAGREE"
				failed = append(failed, fmt.Errorf("A/A: %s %s differs by %.1f%%, bound %.0f%%",
					row.Workload, row.Metric, 100*row.Worse, 100*row.Bound))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.1f%%\t%.0f%%\t%s\n", row.Workload, row.Metric,
				row.Values[0], row.Values[1], 100*row.Worse, 100*row.Bound, verdict)
		}
		tw.Flush()
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return err
	}
	return errors.Join(failed...)
}
