package cluster_test

import (
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

// chaosPlan is the acceptance scenario: 2% drop plus duplicates and delay
// spikes, one 10-second partition between nodes 1 and 2, and one node
// restart (node 3 down for 3 seconds).
func chaosPlan() *sim.FaultPlan {
	return &sim.FaultPlan{
		DropRate:          0.02,
		DupRate:           0.01,
		SpikeRate:         0.01,
		SpikeDelay:        sim.Fixed(2 * time.Second),
		RetransmitTimeout: 200 * time.Millisecond,
		Partitions: []sim.Partition{
			{A: 1, B: 2, Start: 2 * time.Second, End: 12 * time.Second},
		},
		Crashes: []sim.CrashWindow{
			{Node: 3, Start: 5 * time.Second, End: 8 * time.Second},
		},
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

// runChaos drives a closed-loop workload under the fault plan: each node
// performs `cycles` acquire→hold→release rounds on one lock, pausing
// (rescheduling) while inside its own crash window. It returns the
// cluster and the number of completed grants.
func runChaos(t *testing.T, p cluster.Protocol, nodes, cycles int, seed int64) (*cluster.Cluster, int) {
	t.Helper()
	const lock proto.LockID = 1
	// A tiny ring suffices: the auditor consumes the stream through the
	// tap, which fires before ring admission.
	rec := trace.New(1)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	c := cluster.New(cluster.Config{
		Protocol: p,
		Nodes:    nodes,
		Locks:    []proto.LockID{lock},
		Seed:     seed,
		Trace:    rec,
		Faults:   chaosPlan(),
	})
	granted := 0
	var step func(node, round int)
	step = func(node, round int) {
		if round >= cycles {
			return
		}
		n := c.Nodes[node]
		if c.NodeDown(n.ID) {
			// The node is down: resume one RTO after restart.
			restart := c.Net.Faults().RestartAt(node, c.Sim.Now())
			c.Sim.At(restart-c.Sim.Now()+200*time.Millisecond, func() { step(node, round) })
			return
		}
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
	// Chaos stretches the run (partition heal at 12s, spikes, retransmit
	// delays); give it generous virtual time — it is cheap.
	c.Sim.Run(30 * time.Minute)
	return c, granted
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
			c, granted := runChaos(t, p, nodes, cycles, 1234)
			if err := c.Err(); err != nil {
				t.Fatalf("protocol error or oracle violation: %v", err)
			}
			if want := nodes * cycles; granted != want {
				t.Fatalf("granted %d of %d requests (stalled under faults)", granted, want)
			}
			if !c.Quiesced() {
				t.Fatal("cluster did not quiesce")
			}
			if err := c.CheckTokens(); err != nil {
				t.Fatal(err)
			}
			if c.Net.FaultStats.Total() == 0 {
				t.Fatal("fault plan injected nothing — chaos test is vacuous")
			}
		})
	}
}

// TestChaosDeterministic reruns the same seeded chaos scenario and
// requires bit-identical fault counters and message metrics.
func TestChaosDeterministic(t *testing.T) {
	type fingerprint struct {
		faults  metrics.Faults
		byKind  [14]uint64
		granted int
		fired   uint64
	}
	run := func() fingerprint {
		c, granted := runChaos(t, cluster.Hierarchical, 32, 3, 99)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return fingerprint{
			faults:  c.Net.FaultStats,
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

// TestChaosDropSweep sweeps drop rates across all protocols; safety and
// token conservation must hold at every rate.
func TestChaosDropSweep(t *testing.T) {
	for _, rate := range []float64{0.01, 0.05, 0.2} {
		for _, p := range []cluster.Protocol{cluster.Hierarchical, cluster.Naimi, cluster.Suzuki} {
			const lock proto.LockID = 1
			c := cluster.New(cluster.Config{
				Protocol: p,
				Nodes:    12,
				Locks:    []proto.LockID{lock},
				Seed:     int64(100 * rate),
				Faults: &sim.FaultPlan{
					DropRate:          rate,
					RetransmitTimeout: 100 * time.Millisecond,
				},
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
				t.Fatalf("%v at drop %.0f%%: %v", p, 100*rate, err)
			}
			if granted != 11 {
				t.Fatalf("%v at drop %.0f%%: %d/11 granted", p, 100*rate, granted)
			}
			if err := c.CheckTokens(); err != nil {
				t.Fatalf("%v at drop %.0f%%: %v", p, 100*rate, err)
			}
		}
	}
}

// TestChaosTraceRecordsFaults checks fault events reach the trace and the
// per-link FIFO contract survives injection.
func TestChaosTraceRecordsFaults(t *testing.T) {
	rec := trace.New(1 << 20)
	const lock proto.LockID = 1
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    8,
		Locks:    []proto.LockID{lock},
		Seed:     7,
		Trace:    rec,
		Faults: &sim.FaultPlan{
			DropRate: 0.2, DupRate: 0.2, RetransmitTimeout: 50 * time.Millisecond,
		},
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
	counts := rec.Counts()
	if counts[trace.OpDrop]+counts[trace.OpDup] == 0 {
		t.Fatal("no fault events in trace")
	}
	if v := rec.CheckFIFO(); v != "" {
		t.Fatalf("FIFO violated under faults: %s", v)
	}
	stats := c.Net.FaultStats
	if uint64(counts[trace.OpDrop]) != stats.Drops || uint64(counts[trace.OpDup]) != stats.Duplicates {
		t.Fatalf("trace fault counts (%d drops, %d dups) disagree with metrics (%+v)",
			counts[trace.OpDrop], counts[trace.OpDup], stats)
	}
}
