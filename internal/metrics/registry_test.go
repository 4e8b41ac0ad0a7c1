package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// validateExposition checks Prometheus text-format invariants: every
// sample belongs to a family announced by exactly one HELP and one TYPE
// line appearing before its samples, histogram samples use only the
// _bucket/_sum/_count suffixes, and no series (name + label set) is
// emitted twice.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	help := make(map[string]int)
	typ := make(map[string]string)
	seenSeries := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("HELP line without text: %q", line)
			}
			help[parts[0]]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("unknown TYPE %q in %q", parts[1], line)
			}
			if _, dup := typ[parts[0]]; dup {
				t.Errorf("duplicate TYPE line for %s", parts[0])
			}
			typ[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line: %q", line)
			continue
		}
		// Sample line: name{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series := line[:sp]
		if seenSeries[series] {
			t.Errorf("duplicate series: %q", series)
		}
		seenSeries[series] = true
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && typ[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if _, ok := typ[base]; !ok {
			t.Errorf("sample %q has no TYPE line", line)
		}
		if help[base] == 0 {
			t.Errorf("sample %q has no HELP line", line)
		}
	}
	for name, n := range help {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines", name, n)
		}
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h", nil)
	h := r.Histogram("x_seconds", "h", nil, nil)
	r.Collect("y", "h", "gauge", func(emit func(Labels, float64)) {})

	// All handles are nil and all methods no-ops.
	c.Inc()
	c.Add(7)
	h.Observe(0.5)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry must write nothing: %q %v", sb.String(), err)
	}
}

func TestDisabledHandlesAllocateNothing(t *testing.T) {
	var c *Counter
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(0.25)
	}); n != 0 {
		t.Fatalf("nil metric handles allocated %.1f times per op", n)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hl_test_total", "test counter", Labels{"kind": "request"})
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same name+labels returns the same series.
	if r.Counter("hl_test_total", "test counter", Labels{"kind": "request"}) != c {
		t.Fatal("lookup must return the existing series")
	}

	// A gauge is a collector: every exposition reads the current value.
	depth := 4.0
	r.Collect("hl_depth", "test gauge", "gauge", func(emit func(Labels, float64)) { emit(nil, depth) })
	for _, want := range []string{"hl_depth 4\n", "hl_depth 2.5\n"} {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "# TYPE hl_depth gauge\n"+want) {
			t.Fatalf("exposition missing gauge sample %q:\n%s", want, sb.String())
		}
		depth -= 1.5
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// 0.5 and 1 land in le=1 (inclusive upper edge), 1.5 in le=2, 3 in
	// le=5, 100 in +Inf.
	if q := h.Quantile(0.4); q != 1 {
		t.Fatalf("P40 = %v, want 1", q)
	}
	if q := h.Quantile(0.6); q != 2 {
		t.Fatalf("P60 = %v, want 2", q)
	}
	// +Inf collapses to the largest finite bound.
	if q := h.Quantile(1); q != 5 {
		t.Fatalf("P100 = %v, want 5", q)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("hierlock_messages_sent_total", "Messages by kind.", Labels{"kind": "request"}).Add(3)
	r.Counter("hierlock_messages_sent_total", "Messages by kind.", Labels{"kind": "token"}).Add(1)
	r.Collect("hierlock_lock_queue_depth", "Queue depth.", "gauge", func(emit func(Labels, float64)) {
		emit(Labels{"lock": "a/b"}, 2)
	})
	h := r.Histogram("hierlock_queue_wait_seconds", "Latency.", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	validateExposition(t, text)

	for _, want := range []string{
		"# HELP hierlock_messages_sent_total Messages by kind.\n",
		"# TYPE hierlock_messages_sent_total counter\n",
		`hierlock_messages_sent_total{kind="request"} 3` + "\n",
		`hierlock_messages_sent_total{kind="token"} 1` + "\n",
		`hierlock_lock_queue_depth{lock="a/b"} 2` + "\n",
		"# TYPE hierlock_queue_wait_seconds histogram\n",
		`hierlock_queue_wait_seconds_bucket{le="0.1"} 1` + "\n",
		`hierlock_queue_wait_seconds_bucket{le="1"} 2` + "\n",
		`hierlock_queue_wait_seconds_bucket{le="+Inf"} 3` + "\n",
		"hierlock_queue_wait_seconds_sum 3.55\n",
		"hierlock_queue_wait_seconds_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Families are sorted by name.
	var famOrder []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			famOrder = append(famOrder, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(famOrder) {
		t.Errorf("families not sorted: %v", famOrder)
	}
}

func TestCollectors(t *testing.T) {
	r := NewRegistry()
	// A static series that a collector later collides with.
	r.Counter("hl_queue", "Queue.", Labels{"peer": "1"}).Add(42)
	r.Collect("hl_queue", "Queue.", "counter", func(emit func(Labels, float64)) {
		emit(Labels{"peer": "1"}, 7) // collides with static → dropped
		emit(Labels{"peer": "2"}, 9)
		emit(Labels{"peer": "0"}, 5)
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	validateExposition(t, text)
	if !strings.Contains(text, `hl_queue{peer="1"} 42`) {
		t.Errorf("static series must win over collector sample:\n%s", text)
	}
	if !strings.Contains(text, `hl_queue{peer="2"} 9`) || !strings.Contains(text, `hl_queue{peer="0"} 5`) {
		t.Errorf("collector samples missing:\n%s", text)
	}
	// Collector runs at every scrape, reflecting current state.
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, sb.String())
}

func TestLabelRendering(t *testing.T) {
	// Keys are emitted sorted regardless of map order, and values are
	// escaped.
	a := renderLabels(Labels{"b": "2", "a": "1"})
	if a != `a="1",b="2"` {
		t.Fatalf("render = %q", a)
	}
	esc := renderLabels(Labels{"k": "a\"b\\c\nd"})
	if esc != `k="a\"b\\c\nd"` {
		t.Fatalf("escaped render = %q", esc)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				r.Counter("hl_conc_total", "c", Labels{"w": fmt.Sprint(i)}).Inc()
				r.Histogram("hl_conc_seconds", "h", nil, nil).Observe(float64(j) / 100)
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	var total uint64
	for i := 0; i < 4; i++ {
		total += r.Counter("hl_conc_total", "c", Labels{"w": fmt.Sprint(i)}).Value()
	}
	if total != 800 {
		t.Fatalf("lost counter increments: %d", total)
	}
	if c := r.Histogram("hl_conc_seconds", "h", nil, nil).Count(); c != 800 {
		t.Fatalf("lost histogram observations: %d", c)
	}
}

// TestStripedHandles (the name is from when handles had striped cells):
// Inc/Observe from eight goroutines read back as the serial totals
// through every reader, and the exposition's _count is its +Inf bucket.
func TestStripedHandles(t *testing.T) {
	const workers, per = 8, 5000
	r := NewRegistry()
	c := r.Counter("striped_total", "c", nil)
	h := r.Histogram("striped_seconds", "h", []float64{1, 2, 5}, nil)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 4)) // 0, 1, 2, 3: one sample in four adds nothing to the sum
				if i%10 == 0 {
					c.Inc()
					h.Observe(7)
				}
			}
		}()
	}
	wg.Wait()

	const n = workers * per
	if got := c.Value(); got != n+n/10 {
		t.Fatalf("counter = %d, want %d", got, n+n/10)
	}
	if got := h.Count(); got != n+n/10 {
		t.Fatalf("histogram count = %d, want %d", got, n+n/10)
	}
	if got, want := h.Sum(), float64(n/4*(0+1+2+3)+7*n/10); got != want {
		t.Fatalf("histogram sum = %v, want %v", got, want)
	}
	// Half the small samples are ≤ 1, three quarters ≤ 2, the 7s overflow.
	if q := h.Quantile(0.4); q != 1 {
		t.Fatalf("P40 = %v, want 1", q)
	}
	if q := h.Quantile(0.6); q != 2 {
		t.Fatalf("P60 = %v, want 2", q)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	validateExposition(t, text)
	for _, want := range []string{
		"striped_total 44000\n",
		`striped_seconds_bucket{le="1"} 20000` + "\n",
		`striped_seconds_bucket{le="2"} 30000` + "\n",
		`striped_seconds_bucket{le="5"} 40000` + "\n",
		`striped_seconds_bucket{le="+Inf"} 44000` + "\n",
		"striped_seconds_count 44000\n",
		"striped_seconds_sum 88000\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestOnReadFoldsBeforeEveryRead: a producer counts in words of its own
// and folds them in an OnRead hook. Every way of reading the registry —
// the exposition and Value, Count, Sum, Quantile on its handles — runs
// the hook first, a registry without producers and a standalone handle
// run none, and Add puts counted samples in their buckets with one
// addition to the sum.
func TestOnReadFoldsBeforeEveryRead(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("folded_total", "c", nil)
	h := r.Histogram("folded_seconds", "h", []float64{1, 2, 5}, nil)
	var mu sync.Mutex
	var staged uint64 // samples of 0.25 each
	folds := 0
	r.OnRead(func() {
		mu.Lock()
		defer mu.Unlock()
		folds++
		c.Add(staged)
		h.Add([]uint64{staged}, 0.25*float64(staged))
		staged = 0
	})
	stage := func(n uint64) {
		mu.Lock()
		staged += n
		mu.Unlock()
	}

	stage(3)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value() = %d with 3 staged", got)
	}
	stage(1)
	if got := h.Count(); got != 4 {
		t.Fatalf("Count() = %d with 4 offered", got)
	}
	stage(4)
	if got := h.Sum(); got != 2 {
		t.Fatalf("Sum() = %v with 8 x 0.25 offered", got)
	}
	h.Observe(3) // one sample the ordinary way, in the le=5 bucket
	stage(1)
	if q := h.Quantile(0.9); q != 1 {
		t.Fatalf("P90 = %v, want the first bound: 9 of 10 samples were folded into it", q)
	}
	stage(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, sb.String())
	for _, want := range []string{
		"folded_total 11\n",
		`folded_seconds_bucket{le="1"} 11` + "\n",
		`folded_seconds_bucket{le="5"} 12` + "\n",
		"folded_seconds_count 12\n",
		"folded_seconds_sum 5.75\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	if folds != 5 {
		t.Errorf("the hook ran %d times for five reads", folds)
	}
	r.Pull()
	if folds != 6 {
		t.Errorf("Pull did not run the hook")
	}

	// Add with a count per bucket: the samples land where Observe puts
	// them, Bucket being its search.
	h.Add([]uint64{0, 2, 0, 1}, 12)
	for _, v := range []float64{1.5, 2, 9} {
		h.Observe(v)
	}
	if got := []int{Bucket(h.upper, 1.5), Bucket(h.upper, 2), Bucket(h.upper, 9)}; !slices.Equal(got, []int{1, 1, 3}) {
		t.Fatalf("Bucket = %v, want [1 1 3]", got)
	}
	if q := h.Quantile(1); q != 5 || h.Count() != 18 || h.Sum() != 5.75+12+12.5 {
		t.Fatalf("after Add: P100 %v count %d sum %v", q, h.Count(), h.Sum())
	}

	// Nothing to run, nothing to lock: nil registry, nil and standalone
	// handles, a registry with no producer.
	var nilR *Registry
	nilR.OnRead(func() { t.Error("hook of a nil registry ran") })
	nilR.Pull()
	var nilH *Histogram
	nilH.Add([]uint64{3}, 1)
	lone := NewHistogram([]float64{1})
	lone.Add([]uint64{2}, 0.5)
	if lone.Count() != 2 || lone.Sum() != 0.5 {
		t.Fatalf("standalone histogram: count %d sum %v", lone.Count(), lone.Sum())
	}
	plain := NewRegistry()
	plain.OnRead(nil)
	if plain.Counter("x_total", "x", nil).Value() != 0 {
		t.Fatal("empty registry")
	}
}
