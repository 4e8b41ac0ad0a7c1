package hierlock_test

// The member counts every client-operation sample in plain words of the
// lock's stripe and folds them into the registry when somebody reads it.
// These tests read while the counting goes on: an exposition is exact and
// whole, and the exposition of a fixed script is, line for line, what it
// was when every sample wrote its handles itself.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scrape renders reg's exposition.
func scrape(t testing.TB, reg *metrics.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Error(err) // not Fatal: the scraper goroutine calls this too
	}
	return b.String()
}

// promSum adds up the samples of series name whose label string contains
// every one of must and none of mustNot.
func promSum(text, name string, must []string, mustNot ...string) (sum float64) {
lines:
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		sp := strings.LastIndexByte(rest, ' ')
		labels := rest[:sp]
		for _, m := range must {
			if !strings.Contains(labels, m) {
				continue lines
			}
		}
		for _, m := range mustNot {
			if strings.Contains(labels, m) {
				continue lines
			}
		}
		v, _ := strconv.ParseFloat(rest[sp+1:], 64)
		sum += v
	}
	return sum
}

// grantedOps is Σ hierlock_op_latency_seconds_count over the outcomes
// that are grants, of both operations.
func grantedOps(text string) float64 {
	return promSum(text, metrics.MetricOpLatency+"_count", nil, `outcome="lost"`)
}

// hammer runs workers goroutines, each locking and unlocking keys keys in
// W, rounds times over, and returns when all are done. Worker w runs on
// members[w%len(members)]; the workers of one round of the members share
// their keys, so with more than one member the keys' tokens travel.
func hammer(t *testing.T, members []*hierlock.Member, workers, keys, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := members[w%len(members)]
			ctx := context.Background()
			names := make([]string, keys)
			for k := range names {
				names[k] = fmt.Sprintf("hammer/%d/%d", w/len(members), k)
			}
			for r := 0; r < rounds; r++ {
				for _, name := range names {
					l, err := m.Lock(ctx, name, hierlock.W)
					if err != nil {
						t.Error(err)
						return
					}
					if err := l.Unlock(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScrapeExactWhileCounting: 4 goroutines x 64 keys with a scraper
// running on member 0's registry. Every exposition shows each grant in its
// op_latency histogram and in hierlock_token_hops or in neither (the
// one-cut witness: Σ op_latency_count{outcome≠"lost"} =
// token_hops_count), no count goes backwards, and the read after the last
// operation returned has them all. Run once on one member with private
// keys, every grant resident, and once on two members sharing each key
// ("striped", after the stripes the samples are folded from), so most
// grants fetch the token and land in other buckets.
func TestScrapeExactWhileCounting(t *testing.T) {
	for _, tc := range []struct {
		name            string
		members, rounds int
	}{{"staged", 1, 150}, {"striped", 2, 40}} {
		t.Run(tc.name, func(t *testing.T) {
			const workers, keys = 4, 64
			c, err := hierlock.NewCluster(tc.members)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			members := make([]*hierlock.Member, tc.members)
			for i := range members {
				members[i] = c.Member(i)
			}
			m := members[0]
			reg := metrics.NewRegistry()
			m.SetTelemetry(hierlock.Telemetry{Registry: reg})
			if tc.members > 1 {
				// Member 1 takes every key's token first, so member 0's
				// first acquire of each fetches it however the workers
				// are scheduled. These run on member 1: none is counted
				// in member 0's total.
				hammer(t, members[1:], workers/tc.members, keys, 1)
			}

			stop := make(chan struct{})
			scraped := make(chan int)
			go func() {
				n := 0
				var last float64
				defer func() { scraped <- n }()
				for {
					select {
					case <-stop:
						return
					default:
					}
					text := scrape(t, reg)
					hops := promSum(text, metrics.MetricTokenHops+"_count", nil)
					if lat := grantedOps(text); hops != lat {
						t.Errorf("scrape %d: token_hops_count %v, op_latency counts %v", n, hops, lat)
						return
					}
					if hops < last {
						t.Errorf("scrape %d: token_hops_count went from %v to %v", n, last, hops)
						return
					}
					last = hops
					n++
				}
			}()
			hammer(t, members, workers, keys, tc.rounds)
			close(stop)
			total := workers / tc.members * keys * tc.rounds
			t.Logf("%d scrapes during %d operations on member 0", <-scraped, total)

			text := scrape(t, reg)
			remote := promSum(text, metrics.MetricOpLatency+"_count", []string{`outcome="remote"`})
			want := map[string]float64{
				metrics.MetricRequestsTotal:        promSum(text, metrics.MetricRequestsTotal, nil),
				metrics.MetricFenceTokens:          promSum(text, metrics.MetricFenceTokens, nil),
				metrics.MetricOpLatency + "{lock}": grantedOps(text),
				metrics.MetricQueueWait:            promSum(text, metrics.MetricQueueWait+"_count", nil),
				metrics.MetricTokenHops:            promSum(text, metrics.MetricTokenHops+"_count", nil),
			}
			if tc.members == 1 {
				want[metrics.MetricTokenHops+"{le=0}"] = promSum(text, metrics.MetricTokenHops+"_bucket", []string{`le="0"`})
				want[metrics.MetricOpLatency+"{local,+Inf}"] = promSum(text, metrics.MetricOpLatency+"_bucket", []string{`outcome="local"`, `op="lock"`, `le="+Inf"`})
				if remote != 0 {
					t.Errorf("%v remote grants on a one-member cluster", remote)
				}
			} else if remote == 0 {
				t.Error("no grant fetched the token: the direct path was not exercised")
			}
			for series, got := range want {
				if got != float64(total) {
					t.Errorf("%s = %v after %d operations", series, got, total)
				}
			}
			if st := m.Stats(); st.Acquires != uint64(total) {
				t.Errorf("Stats().Acquires = %d, want %d", st.Acquires, total)
			}
			// A direct read of a handle pulls as a scrape does.
			if got := reg.Counter(metrics.MetricRequestsTotal, "", nil).Value(); got != uint64(total) {
				t.Errorf("Counter.Value() = %d, want %d", got, total)
			}
		})
	}
}

// TestSetTelemetryTwicePanics: telemetry attaches once. A second bundle
// would split what the stripes count between two registries.
func TestSetTelemetryTwicePanics(t *testing.T) {
	c, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	m.SetTelemetry(hierlock.Telemetry{Registry: metrics.NewRegistry()})
	defer func() {
		if recover() == nil {
			t.Fatal("a second SetTelemetry returned")
		}
	}()
	m.SetTelemetry(hierlock.Telemetry{Registry: metrics.NewRegistry()})
}

// volatile matches the exposition lines whose value is a measurement of
// the run, not a count of what the script did: the sums of the time-valued
// histograms and the Lamport clock.
var volatile = regexp.MustCompile(`(?m)^(hierlock_[a-z_]*seconds_sum(\{[^}]*\})?|hierlock_lamport_clock) .*$`)

// goldenScript runs the fixed script on a fresh two-member cluster and
// returns member 0's exposition with the measured values masked.
func goldenScript(t *testing.T) string {
	t.Helper()
	c, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, peer := c.Member(0), c.Member(1)
	reg := metrics.NewRegistry()
	m.SetTelemetry(hierlock.Telemetry{Registry: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lock := func(m *hierlock.Member, res string, mode hierlock.Mode) *hierlock.Lock {
		l, err := m.Lock(ctx, res, mode)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	unlock := func(l *hierlock.Lock) {
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	// A local grant: member 0 is the root, the token is resident.
	unlock(lock(m, "golden/local", hierlock.W))
	// A shared join: the second R rides on the first.
	r1 := lock(m, "golden/shared", hierlock.R)
	r2 := lock(m, "golden/shared", hierlock.R)
	unlock(r2)
	unlock(r1)
	// A remote grant: the peer takes the token away, member 0 fetches it
	// back (one hop).
	unlock(lock(peer, "golden/remote", hierlock.W))
	unlock(lock(m, "golden/remote", hierlock.W))
	// An upgrade, granted at once: nobody else holds a copy.
	u := lock(m, "golden/upgrade", hierlock.U)
	if err := u.Upgrade(ctx); err != nil {
		t.Fatal(err)
	}
	unlock(u)
	return volatile.ReplaceAllString(scrape(t, reg), "$1 MEASURED")
}

// TestMemberMetricsGolden pins member 0's whole exposition after a fixed
// script — a local grant, a shared join, a remote grant, an upgrade —
// with only the measured values masked: every family, series, counter,
// _count and _bucket line. The file was written by the parent of the
// change that made the stripes count (each sample writing its handles
// itself), so it is also the proof that the fold changes nothing a
// scraper can see. A bucket line moves if the scheduler holds a grant up
// for half a millisecond; a mismatch is therefore retried on a fresh
// cluster before it counts.
func TestMemberMetricsGolden(t *testing.T) {
	path := filepath.Join("testdata", "member_metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(goldenScript(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var got string
	for attempt := 1; attempt <= 5; attempt++ {
		if got = goldenScript(t); bytes.Equal([]byte(got), want) {
			return
		}
		t.Logf("attempt %d differs from the golden", attempt)
	}
	t.Errorf("golden mismatch for %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
}

// TestScrapeBoundedByWorkingSet is the series-cardinality gate: no series
// names a lock (/debug/locks serves the per-lock facts), so once idle
// locks are evicted a member that moved a thousand locks' tokens scrapes
// no longer than one that moved a hundred.
func TestScrapeBoundedByWorkingSet(t *testing.T) {
	lines := func(n int) int {
		c, err := hierlock.NewCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var regs [2]*metrics.Registry
		for i := range regs {
			regs[i] = metrics.NewRegistry()
			c.Member(i).SetTelemetry(hierlock.Telemetry{Registry: regs[i]})
		}
		ctx := context.Background()
		for r := 0; r < n; r++ {
			res := fmt.Sprintf("cardinality/%d", r)
			for _, i := range []int{1, 0} { // the token goes out and comes back
				l, err := c.Member(i).Lock(ctx, res, hierlock.W)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Unlock(); err != nil {
					t.Fatal(err)
				}
			}
		}
		total := 0
		for i, reg := range regs {
			m := c.Member(i)
			m.EvictIdle()
			if left := m.TrackedLocks(); left != 0 {
				t.Fatalf("N=%d: member %d still tracks %d locks after EvictIdle", n, i, left)
			}
			text := scrape(t, reg)
			if strings.Contains(text, "lock=") {
				t.Fatalf("N=%d: member %d's scrape has a series per lock:\n%s", n, i, text)
			}
			total += strings.Count(text, "\n")
		}
		return total
	}
	if small, large := lines(100), lines(1000); large > small {
		t.Fatalf("scrape grew with the resources ever named: %d lines at N=100, %d at N=1000", small, large)
	}
}
