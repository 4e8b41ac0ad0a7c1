package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hierlock"
)

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	var exact []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over 100 ns .. 100 ms: every octave the benchmark sees.
		v := math.Exp(rng.Float64()*math.Log(1e6)) * 100
		h.record(int64(v))
		exact = append(exact, math.Floor(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f: off by more than 1%%", q, got, want)
		}
	}
	var small hist
	for v := int64(0); v < 100; v++ {
		small.record(v)
	}
	if got := small.quantile(0.5); math.Abs(got-50) > 1 {
		t.Errorf("linear range median = %v, want ~50", got)
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestHistIndexBounds(t *testing.T) {
	for _, v := range []int64{-5, 0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		lo, width := histBounds(i)
		if v >= 0 && v < 1<<47 && (float64(v) < lo || float64(v) >= lo+width) {
			t.Errorf("value %d landed in bucket %d = [%v, %v)", v, i, lo, lo+width)
		}
	}
}

func TestMedianOfWindows(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{9, 1, 5}, 5},                  // one spoiled window does not move it
		{[]float64{10, 10, 1000, 10, 11, 9}, 10}, // even count: mean of the middle pair
		{[]float64{1, 3}, 2},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestCyclesFor(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{{time.Second, 1}, {100 * time.Millisecond, 1}, {5 * time.Second, 9}, {15 * time.Second, 27}, {30 * time.Second, 54}} {
		if got := cyclesFor(tc.d); got != tc.want {
			t.Errorf("cyclesFor(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// commandStream renders a client's first 5000 ops as the byte stream its
// server would receive.
func commandStream(t *testing.T, workload string, seed int64, client int) []byte {
	t.Helper()
	p, err := buildPlan(workload, seed, client, &resourceTable{})
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i := 0; i < 5000; i++ {
		o := p.at(i)
		out = append(out, o.acquire...)
		out = append(out, o.upgrade...)
		out = append(out, o.release...)
	}
	return out
}

func TestSeedDeterminesCommandStream(t *testing.T) {
	for _, wl := range workloadNames {
		a, b := commandStream(t, wl, 1, 0), commandStream(t, wl, 1, 0)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different command streams", wl)
		}
		if wl == wlHotKey {
			continue // one op: the stream is the same for every seed by design
		}
		if bytes.Equal(a, commandStream(t, wl, 2, 0)) {
			t.Errorf("%s: seeds 1 and 2 gave the same command stream", wl)
		}
		if bytes.Equal(a, commandStream(t, wl, 1, 1)) {
			t.Errorf("%s: clients 0 and 1 gave the same command stream", wl)
		}
	}
	if _, err := buildPlan("no-such-workload", 1, 0, &resourceTable{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestAirlineMixAndMapping(t *testing.T) {
	var table resourceTable
	p, err := buildPlan(wlAirline, 1, 0, &table)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, i := range p.stream {
		verb, _, _ := strings.Cut(string(p.ops[i].acquire), "\n")
		f := strings.Fields(verb)
		counts[f[0]+" "+map[bool]string{true: f[1], false: f[2]}[f[0] == "LOCKPATH"]]++
	}
	n := float64(len(p.stream))
	for key, want := range map[string]float64{"LOCKPATH R": 0.80, "LOCK R": 0.10, "LOCK U": 0.04, "LOCKPATH W": 0.05, "LOCK W": 0.01} {
		if got := float64(counts[key]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("share of %q = %.3f, want %.2f", key, got, want)
		}
	}
	u := p.ops[2*fareEntries+2]
	if string(u.acquire) != "LOCK fares U\n" || string(u.upgrade) != "UPGRADE fares\n" || string(u.release) != "UNLOCK fares\n" {
		t.Errorf("U op = %q / %q / %q", u.acquire, u.upgrade, u.release)
	}
	ir := p.ops[3]
	if string(ir.acquire) != "LOCKPATH R fares e3\n" || string(ir.release) != "UNLOCKPATH fares e3\n" {
		t.Errorf("IR op = %q / %q", ir.acquire, ir.release)
	}
	if len(ir.holds) != 2 || table.names[ir.holds[0].res] != "fares" || ir.holds[0].mode != hierlock.IR ||
		table.names[ir.holds[1].res] != "fares/e3" || ir.holds[1].mode != hierlock.R {
		t.Errorf("IR op holds %+v over %v", ir.holds, table.names)
	}
}

func TestReplyParsing(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{{"OK", true}, {"OK hot W fence=0.12", true}, {"OKAY", false}, {"ERR busy", false}, {"", false}} {
		if got := isOK([]byte(tc.line)); got != tc.ok {
			t.Errorf("isOK(%q) = %v", tc.line, got)
		}
	}
	f, err := replyFence([]byte("OK path:fares/e3 R fence=2.981"))
	if err != nil || f != (hierlock.FenceToken{Epoch: 2, Seq: 981}) {
		t.Errorf("replyFence = %v, %v", f, err)
	}
	for _, bad := range []string{"OK hot W", "OK hot W fence=", "OK hot W fence=1", "OK hot W fence=x.1"} {
		if _, err := replyFence([]byte(bad)); err == nil {
			t.Errorf("replyFence(%q) accepted", bad)
		}
	}
}

// goldenScrape is two scrapes of one registry, trimmed to the families
// the benchmark reads plus the shapes that must not confuse the parser.
const goldenScrapeBefore = `# HELP hierlock_transport_frames_total Protocol message frames written to and read from peers.
# TYPE hierlock_transport_frames_total counter
hierlock_transport_frames_total{direction="recv"} 90
hierlock_transport_frames_total{direction="sent"} 100
hierlock_op_latency_seconds_bucket{op="lock",outcome="remote",le="0.001"} 7
hierlock_op_latency_seconds_count{op="lock",outcome="local"} 40
hierlock_op_latency_seconds_count{op="lock",outcome="remote"} 10
hierlock_op_latency_seconds_count{op="upgrade",outcome="remote"} 2
hierlock_token_hops_sum 12
hierlock_token_hops_count 50
hierlock_transport_queue_high_water{peer="1"} 3
hierlock_audit_entries_total 1e+03
`

const goldenScrapeAfter = `hierlock_transport_frames_total{direction="recv"} 190
hierlock_transport_frames_total{direction="sent"} 250
hierlock_op_latency_seconds_bucket{op="lock",outcome="remote",le="0.001"} 70
hierlock_op_latency_seconds_count{op="lock",outcome="local"} 100
hierlock_op_latency_seconds_count{op="lock",outcome="remote"} 40
hierlock_op_latency_seconds_count{op="upgrade",outcome="remote"} 12
hierlock_token_hops_sum 72
hierlock_token_hops_count 150
hierlock_transport_queue_high_water{peer="1"} 3
hierlock_transport_queue_high_water{peer="2"} 9
hierlock_audit_entries_total 1600
garbage line without a value
`

func TestPrometheusDelta(t *testing.T) {
	before := snapshot{prom: []promScrape{parseProm(goldenScrapeBefore)}}
	after := snapshot{prom: []promScrape{parseProm(goldenScrapeAfter)}}
	if got := before.prom[0]["hierlock_audit_entries_total"]; got != 1000 {
		t.Errorf("exponent value parsed as %v", got)
	}
	d := after.since(before)
	want := layerDelta{
		framesSent: 150, grantsRemote: 40, grantsAll: 100,
		tokenHopsSum: 60, tokenHopsCount: 100, traceRecords: 600, queueHighWater: 9,
	}
	if *d != want {
		t.Errorf("delta = %+v\nwant    %+v", *d, want)
	}
	out := map[string]float64{}
	d.metrics(100, out)
	for name, v := range map[string]float64{
		"transport.frames_per_op": 1.5, "member.remote_ratio": 0.4, "hlock.token_hops_mean": 0.6,
		"telemetry.trace_records_per_op": 6, "transport.queue_high_water": 9, "member.msgs_per_op": 0,
	} {
		if out[name] != v {
			t.Errorf("%s = %v, want %v", name, out[name], v)
		}
	}
}

func testOracle() (*oracle, *op, *op) {
	var table resourceTable
	w := lockOp(&table, "hot", hierlock.W)
	r := pathOp(&table, 1, hierlock.R, hierlock.IR)
	return newOracle(&table), &w, &r
}

func TestOracleFlagsOverlapAndFence(t *testing.T) {
	o, w, r := testOracle()
	o.granted(0, w, hierlock.FenceToken{Seq: 5})
	o.releasing(0, w)
	o.granted(1, w, hierlock.FenceToken{Seq: 6})
	o.releasing(1, w)
	o.granted(0, r, hierlock.FenceToken{Seq: 1}) // shared leaf: fence not ordered
	o.granted(1, r, hierlock.FenceToken{Seq: 1})
	o.releasing(0, r)
	o.releasing(1, r)
	if n, first := o.count(); n != 0 {
		t.Fatalf("clean history flagged %d violations: %s", n, first)
	}

	o.granted(0, w, hierlock.FenceToken{Seq: 7})
	o.granted(1, w, hierlock.FenceToken{Seq: 8}) // injected W/W overlap
	if n, first := o.count(); n != 1 || !strings.Contains(first, "while caller 0 holds W") {
		t.Fatalf("W/W overlap: %d violations, first %q", n, first)
	}
	o.releasing(0, w)
	o.releasing(1, w)
	o.granted(0, w, hierlock.FenceToken{Seq: 8}) // injected non-increasing fence
	if n, _ := o.count(); n != 2 {
		t.Fatalf("repeated fence not flagged: %d violations", n)
	}
	o.releasing(0, w)
	o.granted(0, w, hierlock.FenceToken{Epoch: 1, Seq: 1}) // a later epoch dominates any seq
	if n, _ := o.count(); n != 2 {
		t.Fatalf("epoch bump flagged: %d violations", n)
	}
}

func TestOracleUpgrade(t *testing.T) {
	var table resourceTable
	u := lockOp(&table, "fares", hierlock.U)
	u.upgrade = []byte("UPGRADE fares\n")
	rd := lockOp(&table, "fares", hierlock.R)
	o := newOracle(&table)
	o.granted(0, &u, hierlock.FenceToken{Seq: 3})
	o.granted(1, &rd, hierlock.FenceToken{Seq: 4}) // R beside U is legal
	o.releasing(1, &rd)
	o.upgraded(0, &u, hierlock.FenceToken{Seq: 9})
	if n, first := o.count(); n != 0 {
		t.Fatalf("legal upgrade flagged: %s", first)
	}
	o.granted(1, &rd, hierlock.FenceToken{Seq: 10}) // R beside the upgraded W is not
	if n, _ := o.count(); n != 1 {
		t.Fatalf("R beside W after upgrade: %d violations", n)
	}
}

// faultyCaller breaks mutual exclusion on purpose: every grant succeeds
// at once with the same fence, whatever the other caller holds.
type faultyCaller struct{}

func (faultyCaller) acquire(*op) (hierlock.FenceToken, error) {
	return hierlock.FenceToken{Seq: 1}, nil
}
func (faultyCaller) upgrade(*op) (hierlock.FenceToken, error) {
	return hierlock.FenceToken{Seq: 1}, nil
}
func (faultyCaller) release(*op) error { time.Sleep(time.Microsecond); return nil }
func (faultyCaller) abort()            {}
func (faultyCaller) close() error      { return nil }

func TestInjectedViolationFailsTheRun(t *testing.T) {
	r, err := newRunner(runSpec{workload: wlHotKey, seed: 1, cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range r.clients {
		cs.caller = faultyCaller{}
	}
	_ = r.both(func(ci int) error { r.measure(ci); return nil })
	res := &runResult{}
	r.collect(res)
	if res.correct() || res.failed == 0 || len(res.problems) == 0 {
		t.Fatalf("broken system passed: failed=%d problems=%v", res.failed, res.problems)
	}
}

func TestCompareAA(t *testing.T) {
	run := func(ops, rss float64) suiteRun {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.name] = metricValue{Value: 1}
		}
		m["ops_per_s"], m["peak_rss_mb"] = metricValue{Value: ops}, metricValue{Value: rss}
		return suiteRun{Result: result{Metrics: m}}
	}
	// Sets alternate: A = runs 0, 2, 4; B = runs 1, 3, 5.
	runs := map[string][]suiteRun{}
	for _, wl := range workloadNames {
		runs[wl] = []suiteRun{run(100, 10), run(90, 10), run(500, 10), run(95, 14), run(102, 10), run(1, 14)}
	}
	for _, row := range compareAA(runs) {
		switch row.Metric {
		case "ops_per_s": // medians 102 and 90: an outlier in either set does not count
			if row.Values != [2]float64{102, 90} || !row.OK || math.Abs(row.Worse-12.0/90) > 1e-9 {
				t.Errorf("%s ops_per_s row %+v", row.Workload, row)
			}
		case "peak_rss_mb": // medians 10 and 14: 40 % apart
			if row.OK || math.Abs(row.Worse-0.4) > 1e-9 {
				t.Errorf("%s peak_rss_mb row %+v", row.Workload, row)
			}
		default:
			if !row.OK || row.Worse != 0 {
				t.Errorf("%s %s row %+v", row.Workload, row.Metric, row)
			}
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type benchmarkJSON struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}
	want := benchmarkJSON{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 15}
	for _, wl := range workloadNames {
		want.Workloads = append(want.Workloads, jsonWorkload{wl, workloadWhy[wl]})
	}
	for _, d := range endToEnd {
		b := d.bound
		want.EndToEnd = append(want.EndToEnd, jsonMetric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, jsonMetric{d.name, d.unit, d.better, nil})
	}
	rendered, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("%v\nexpected content:\n%s", err, rendered)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and gen.go; expected content:\n%s", rendered)
	}
	if len(want.PerLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json outside the contract's limits: %d per-layer metrics, %d bytes", len(want.PerLayer), len(data))
	}
	for _, wl := range want.Workloads {
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", wl.Name)
		}
	}
}

// TestSmoke runs all four workloads end to end for one cycle (0.6 s)
// with every correctness check on.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, wl := range workloadNames {
		res, err := runWorkload(context.Background(), runSpec{
			workload: wl, seed: 3, cycles: 1, warmup: 500, layers: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if !res.correct() || res.samples == 0 || res.attempted != res.samples {
			t.Errorf("%s: correct=%v samples=%d attempted=%d failed=%d problems=%v",
				wl, res.correct(), res.samples, res.attempted, res.failed, res.problems)
		}
		if len(res.cycles) != 1 || res.opsPerS() <= 0 || res.p50US() <= 0 || res.p99US() < res.p50US() ||
			res.cpuUSPerOp() <= 0 || res.setup <= 0 || res.peakRSSMB <= 0 {
			t.Errorf("%s: implausible figures %+v", wl, res)
		}
		for _, c := range res.cycles {
			// Far from nominal the reference may be (the race detector
			// slows the kernel 20x), absurd it may not.
			if s := c.ref.speed(); s < 0.01 || s > 100 {
				t.Errorf("%s: reference speed %v against nominal", wl, s)
			}
		}
		layers := map[string]float64{}
		res.layers.metrics(res.samples, layers)
		msgs := layers["member.msgs_per_op"]
		switch wl {
		case wlPrivate, wlEmbedded:
			if msgs >= 0.01 {
				t.Errorf("%s: %.3f protocol msgs/op, want resident tokens (< 0.01)", wl, msgs)
			}
		default:
			if msgs < 0.8 || msgs > 4 {
				t.Errorf("%s: %.3f protocol msgs/op, want 0.8..4", wl, msgs)
			}
		}
		if layers["journal.records_per_op"] <= 0 || layers["runtime.allocs_per_op"] <= 0 {
			t.Errorf("%s: journal or allocation counters did not move: %v", wl, layers)
		}
		if wl != wlEmbedded && layers["session.leader_acquires_per_op"] <= 0 {
			t.Errorf("%s: session admission counters did not move", wl)
		}
	}
}
