package cluster_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"hierlock/internal/audit"
	"hierlock/internal/cluster"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/sim"
	"hierlock/internal/trace"
)

// attachAuditor taps the cluster's event stream with the online protocol
// auditor and exports its counters through reg (the acceptance check:
// chaos runs must finish with hierlock_audit_violations_total = 0).
func attachAuditor(rec *trace.Recorder, reg *metrics.Registry) *audit.Auditor {
	a := audit.New(audit.Config{Registry: reg, Root: 0})
	rec.SetTap(a.Record)
	return a
}

// requireCleanAudit fails the test on any audit violation, quoting the
// details the auditor retained.
func requireCleanAudit(t *testing.T, a *audit.Auditor, reg *metrics.Registry) {
	t.Helper()
	if n := a.Violations(); n != 0 {
		rep := a.Snapshot()
		t.Fatalf("auditor flagged %d violations: %+v", n, rep.Violations)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, metrics.MetricAuditViolations+"{") && !strings.HasSuffix(line, " 0") {
			t.Fatalf("nonzero audit metric: %s", line)
		}
	}
}

// heavyTail is the chaos suite's link: the paper's latency,
// UniformAround(150ms), plus a stall on a few frames — +200 ms (one
// retransmit timeout) on 2 %, +2 s on 1 % and +10 s on 0.2 %. The
// network keeps every link FIFO, so a stalled frame holds each later
// frame on its link behind it, as a lost segment or a one-way cut that
// heals does on TCP. Every stall is counted in *stalls, so a test can
// tell a run that met the tail from one that did not.
func heavyTail(stalls *uint64) sim.Dist {
	base := sim.UniformAround(cluster.DefaultLatencyMean)
	return func(rng *rand.Rand) time.Duration {
		d := base(rng)
		switch p := rng.Float64(); {
		case p < 0.002:
			d += 10 * time.Second
		case p < 0.012:
			d += 2 * time.Second
		case p < 0.032:
			d += 200 * time.Millisecond
		default:
			return d
		}
		*stalls++
		return d
	}
}

// lossy is a link that loses each transmission of a frame with
// probability rate and sends it again one rto later: the paper's latency
// plus a geometric number of retransmit timeouts. Each retransmission is
// counted in *stalls.
func lossy(rate float64, rto time.Duration, stalls *uint64) sim.Dist {
	base := sim.UniformAround(cluster.DefaultLatencyMean)
	return func(rng *rand.Rand) time.Duration {
		d := base(rng)
		for rng.Float64() < rate {
			d += rto
			*stalls++
		}
		return d
	}
}

// chaosMode picks a per-node request mode: exclusive-only protocols always
// get W; the hierarchical protocol cycles through the CORBA modes.
func chaosMode(p cluster.Protocol, node int) modes.Mode {
	if p != cluster.Hierarchical {
		return modes.W
	}
	switch node % 4 {
	case 0:
		return modes.IR
	case 1:
		return modes.R
	case 2:
		return modes.IW
	default:
		return modes.W
	}
}

// runChaos drives a closed-loop workload over the heavyTail link: each
// node performs `cycles` acquire→hold→release rounds on one lock. It
// returns the cluster, the number of completed grants and the number of
// stalled frames.
func runChaos(t *testing.T, p cluster.Protocol, nodes, cycles int, seed int64) (*cluster.Cluster, int, uint64) {
	t.Helper()
	const lock proto.LockID = 1
	// A tiny ring suffices: the auditor consumes the stream through the
	// tap, which fires before ring admission.
	rec := trace.New(1)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	var stalls uint64
	c := cluster.New(cluster.Config{
		Protocol: p,
		Nodes:    nodes,
		Locks:    []proto.LockID{lock},
		Latency:  heavyTail(&stalls),
		Seed:     seed,
		Trace:    rec,
	})
	granted := 0
	var step func(node, round int)
	step = func(node, round int) {
		if round >= cycles {
			return
		}
		n := c.Nodes[node]
		n.Acquire(lock, chaosMode(p, node), func() {
			granted++
			// Hold briefly, release, think, go again.
			c.Sim.At(20*time.Millisecond, func() {
				n.Release(lock)
				c.Sim.At(time.Duration(node+1)*10*time.Millisecond, func() {
					step(node, round+1)
				})
			})
		})
	}
	for i := 0; i < nodes; i++ {
		i := i
		c.Sim.At(time.Duration(i)*5*time.Millisecond, func() { step(i, 0) })
	}
	// Stalls stretch the run; give it generous virtual time — it is cheap.
	c.Sim.Run(30 * time.Minute)
	return c, granted, stalls
}

func TestChaosAllProtocols(t *testing.T) {
	protocols := []cluster.Protocol{
		cluster.Hierarchical, cluster.Naimi, cluster.Raymond,
		cluster.Suzuki, cluster.Ricart,
	}
	const nodes, cycles = 32, 4
	for _, p := range protocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			c, granted, stalls := runChaos(t, p, nodes, cycles, 1234)
			if err := c.Err(); err != nil {
				t.Fatalf("protocol error or oracle violation: %v", err)
			}
			if want := nodes * cycles; granted != want {
				t.Fatalf("granted %d of %d requests (stalled behind slow frames)", granted, want)
			}
			if !c.Quiesced() {
				t.Fatal("cluster did not quiesce")
			}
			if err := c.CheckTokens(); err != nil {
				t.Fatal(err)
			}
			if stalls == 0 {
				t.Fatal("the link stalled no frame — chaos test is vacuous")
			}
			t.Logf("%d grants, %d frames, %d stalled", granted, c.Net.Metrics.Total(), stalls)
		})
	}
}

// TestChaosDeterministic reruns the same seeded chaos scenario and
// requires bit-identical stall counts and message metrics.
func TestChaosDeterministic(t *testing.T) {
	type fingerprint struct {
		stalls  uint64
		byKind  [14]uint64
		granted int
		fired   uint64
	}
	run := func() fingerprint {
		c, granted, stalls := runChaos(t, cluster.Hierarchical, 32, 3, 99)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return fingerprint{
			stalls:  stalls,
			byKind:  c.Net.Metrics.ByKind,
			granted: granted,
			fired:   c.Sim.Fired(),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("seeded chaos run not reproducible:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
}

// TestChaosDropSweep sweeps loss rates across three protocols: each
// lost transmission costs one retransmit timeout, so a frame's latency
// gains a geometric number of them. Safety and token conservation must
// hold at every rate.
func TestChaosDropSweep(t *testing.T) {
	var stalls uint64
	for _, rate := range []float64{0.01, 0.05, 0.2} {
		for _, p := range []cluster.Protocol{cluster.Hierarchical, cluster.Naimi, cluster.Suzuki} {
			const lock proto.LockID = 1
			c := cluster.New(cluster.Config{
				Protocol: p,
				Nodes:    12,
				Locks:    []proto.LockID{lock},
				Latency:  lossy(rate, 100*time.Millisecond, &stalls),
				Seed:     int64(100 * rate),
			})
			granted := 0
			for i := 1; i < 12; i++ {
				n := c.Nodes[i]
				c.Sim.At(time.Duration(i)*time.Millisecond, func() {
					n.Acquire(lock, modes.W, func() {
						granted++
						c.Sim.At(10*time.Millisecond, func() { n.Release(lock) })
					})
				})
			}
			c.Sim.Run(10 * time.Minute)
			if err := c.Err(); err != nil {
				t.Fatalf("%v at loss %.0f%%: %v", p, 100*rate, err)
			}
			if granted != 11 {
				t.Fatalf("%v at loss %.0f%%: %d/11 granted", p, 100*rate, granted)
			}
			if err := c.CheckTokens(); err != nil {
				t.Fatalf("%v at loss %.0f%%: %v", p, 100*rate, err)
			}
		}
	}
	if stalls == 0 {
		t.Fatal("the sweep lost no transmission — it is vacuous")
	}
}

// TestChaosKeepsLinksFIFO checks that the per-link FIFO contract holds
// on a link where a fifth of the transmissions are lost and resent: a
// frame sent after a slow one on the same link is delivered after it,
// whatever latency it drew.
func TestChaosKeepsLinksFIFO(t *testing.T) {
	rec := trace.New(1 << 20)
	const lock proto.LockID = 1
	var stalls uint64
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    8,
		Locks:    []proto.LockID{lock},
		Latency:  lossy(0.2, 50*time.Millisecond, &stalls),
		Seed:     7,
		Trace:    rec,
	})
	done := 0
	for i := 1; i < 8; i++ {
		n := c.Nodes[i]
		n.Acquire(lock, modes.W, func() {
			done++
			c.Sim.At(5*time.Millisecond, func() { n.Release(lock) })
		})
	}
	c.Sim.Run(5 * time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if done != 7 {
		t.Fatalf("done = %d", done)
	}
	if stalls == 0 {
		t.Fatal("no transmission was lost — the FIFO check is vacuous")
	}
	if v := rec.CheckFIFO(); v != "" {
		t.Fatalf("FIFO violated behind slow frames: %s", v)
	}
}
