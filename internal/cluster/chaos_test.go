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

// recoveryCrashPlan kills one node permanently, destroying every frame
// that touches it from the crash on (the true message-loss model): the
// token, the in-flight requests and the node's queue state all die with
// it. A light drop rate rides along so recovery probes contend with an
// imperfect network too.
func recoveryCrashPlan(victim int) *sim.FaultPlan {
	return &sim.FaultPlan{
		LoseOnCrash:       true,
		DropRate:          0.01,
		RetransmitTimeout: 100 * time.Millisecond,
		Crashes: []sim.CrashWindow{
			{Node: victim, Start: 2 * time.Second, End: 1000 * time.Hour},
		},
	}
}

// runRecoveryChaos drives the acceptance scenario for crash recovery:
// the current token holder (a W holder, so necessarily the token node)
// crashes permanently under LoseOnCrash; the survivors' requests —
// issued before the crash, during the regeneration round and after it —
// must all be granted and released. Returns the cluster and completed
// grant count over the seven survivors.
func runRecoveryChaos(t *testing.T, p cluster.Protocol, seed int64) (*cluster.Cluster, int) {
	t.Helper()
	const (
		lock   proto.LockID = 1
		nodes               = 8
		victim              = 3
	)
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
		Faults:   recoveryCrashPlan(victim),
		Recovery: &cluster.RecoveryOptions{
			ConfirmAfter: time.Second,
			ProbeTimeout: 300 * time.Millisecond,
		},
	})
	// The victim takes W — and with it the token — then dies holding it.
	c.Sim.At(100*time.Millisecond, func() {
		c.Nodes[victim].Acquire(lock, modes.W, func() {})
	})
	served := 0
	i := 0
	for id := 0; id < nodes; id++ {
		if id == victim {
			continue
		}
		n := c.Nodes[id]
		// Staggered starts span the whole failure timeline: before the
		// crash is confirmed (the request is lost with the victim), during
		// the fence (the engine records it silently) and after recovery.
		c.Sim.At(2500*time.Millisecond+time.Duration(i)*400*time.Millisecond, func() {
			n.Acquire(lock, chaosMode(p, int(n.ID)), func() {
				served++
				c.Sim.At(20*time.Millisecond, func() { n.Release(lock) })
			})
		})
		i++
	}
	c.Sim.Run(5 * time.Minute)
	return c, served
}

// TestChaosRecoveryTokenHolderCrash is the PR's acceptance test: on the
// seed (no recovery subsystem) this scenario wedges forever — see
// TestChaosTokenHolderCrashHangsWithoutRecovery for the pinned failure
// mode. With recovery enabled the cluster must converge: an epoch-
// stamped regeneration round rebuilds the token, every surviving
// request is granted, token conservation holds at the new epoch and the
// online auditor stays silent.
func TestChaosRecoveryTokenHolderCrash(t *testing.T) {
	for _, p := range []cluster.Protocol{cluster.Hierarchical} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			c, served := runRecoveryChaos(t, p, 4242)
			if err := c.Err(); err != nil {
				t.Fatalf("protocol error or oracle violation: %v", err)
			}
			if served != 7 {
				t.Fatalf("served %d of 7 surviving requests (recovery did not converge)", served)
			}
			if !c.Quiesced() {
				t.Fatal("cluster did not quiesce after recovery")
			}
			if err := c.CheckTokens(); err != nil {
				t.Fatalf("token conservation after recovery: %v", err)
			}
			if c.Net.FaultStats.Lost == 0 {
				t.Fatal("no frames were lost — the crash model did not engage")
			}
			// Node 0 is the lowest survivor, hence the regenerator.
			if rounds := c.Nodes[0].RecoveryManager().Rounds(); rounds == 0 {
				t.Fatal("regenerator completed no rounds")
			}
		})
	}
}

// TestChaosTokenHolderCrashHangsWithoutRecovery pins the failure mode
// this PR exists to fix: the identical scenario without the recovery
// subsystem leaves every surviving request waiting forever on a token
// that died with its holder, and token conservation reports the loss.
// Config.Recovery is inert on a baseline: Naimi configured exactly as
// runRecoveryChaos configures the hierarchical protocol wedges the same
// way, because crash recovery belongs to the engine the runtime ships.
func TestChaosTokenHolderCrashHangsWithoutRecovery(t *testing.T) {
	const (
		lock   proto.LockID = 1
		nodes               = 8
		victim              = 3
	)
	for _, tc := range []struct {
		name     string
		protocol cluster.Protocol
		recovery *cluster.RecoveryOptions
	}{
		{"hierarchical", cluster.Hierarchical, nil},
		{"naimi-with-recovery", cluster.Naimi, &cluster.RecoveryOptions{
			ConfirmAfter: time.Second,
			ProbeTimeout: 300 * time.Millisecond,
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.Config{
				Protocol: tc.protocol,
				Nodes:    nodes,
				Locks:    []proto.LockID{lock},
				Seed:     4242,
				Faults:   recoveryCrashPlan(victim),
				Recovery: tc.recovery,
			})
			c.Sim.At(100*time.Millisecond, func() {
				c.Nodes[victim].Acquire(lock, modes.W, func() {})
			})
			served := 0
			for id := 0; id < nodes; id++ {
				if id == victim {
					continue
				}
				n := c.Nodes[id]
				c.Sim.At(3*time.Second, func() {
					n.Acquire(lock, modes.W, func() { served++ })
				})
			}
			c.Sim.Run(5 * time.Minute)
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			if served != 0 {
				t.Fatalf("%d requests served without a token — impossible", served)
			}
			if c.Quiesced() {
				t.Fatal("cluster quiesced with outstanding waiters")
			}
			if err := c.CheckTokens(); err == nil {
				t.Fatal("CheckTokens did not report the token lost in the crash")
			}
		})
	}
}

// TestChaosRecoveryDeterministic reruns the seeded recovery scenario
// and requires bit-identical outcomes: the regeneration round, the
// modelled failure detector and the loss bookkeeping are all inside the
// deterministic envelope.
func TestChaosRecoveryDeterministic(t *testing.T) {
	type fingerprint struct {
		faults metrics.Faults
		byKind [14]uint64
		served int
		lost   uint64
		fired  uint64
	}
	run := func() fingerprint {
		c, served := runRecoveryChaos(t, cluster.Hierarchical, 77)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return fingerprint{
			faults: c.Net.FaultStats,
			byKind: c.Net.Metrics.ByKind,
			served: served,
			lost:   c.LostHolds,
			fired:  c.Sim.Fired(),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("seeded recovery run not reproducible:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
}

// diskLossPlan crashes one node under the true message-loss model and
// restarts it with its disk gone (sim.CrashWindow.LoseDisk): the node
// comes back blank, at epoch 0, and must be caught up by the survivors'
// recovery hints before it can use any lock again.
func diskLossPlan(victim int, down, up time.Duration) *sim.FaultPlan {
	return &sim.FaultPlan{
		LoseOnCrash:       true,
		DropRate:          0.01,
		RetransmitTimeout: 100 * time.Millisecond,
		Crashes: []sim.CrashWindow{
			{Node: victim, Start: down, End: up, LoseDisk: true},
		},
	}
}

// TestChaosDiskLossRestart exercises the crash-with-disk-loss fault:
// the token holder dies permanently enough for the survivors to
// regenerate (window ≫ ConfirmAfter), then restarts blank. The
// survivors' requests must all be served during the outage, and the
// restarted node — fenced as stale epoch-0 traffic and hinted back into
// the recovered world — must be served after it. The trace must record
// the restart with Epoch 0 (the disk-loss signature), and safety
// (auditor, oracle, token conservation) must hold throughout.
func TestChaosDiskLossRestart(t *testing.T) {
	const (
		lock   proto.LockID = 1
		nodes               = 8
		victim              = 3
	)
	rec := trace.New(1 << 16)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    nodes,
		Locks:    []proto.LockID{lock},
		Seed:     31337,
		Trace:    rec,
		Faults:   diskLossPlan(victim, 2*time.Second, 20*time.Second),
		Recovery: &cluster.RecoveryOptions{
			ConfirmAfter: time.Second,
			ProbeTimeout: 300 * time.Millisecond,
		},
	})
	// The victim takes W — and with it the token — then dies holding it.
	c.Sim.At(100*time.Millisecond, func() {
		c.Nodes[victim].Acquire(lock, modes.W, func() {})
	})
	served := 0
	i := 0
	for id := 0; id < nodes; id++ {
		if id == victim {
			continue
		}
		n := c.Nodes[id]
		c.Sim.At(2500*time.Millisecond+time.Duration(i)*400*time.Millisecond, func() {
			n.Acquire(lock, chaosMode(cluster.Hierarchical, int(n.ID)), func() {
				served++
				c.Sim.At(20*time.Millisecond, func() { n.Release(lock) })
			})
		})
		i++
	}
	victimServed := false
	c.Sim.At(30*time.Second, func() {
		n := c.Nodes[victim]
		n.Acquire(lock, modes.W, func() {
			victimServed = true
			c.Sim.At(20*time.Millisecond, func() { n.Release(lock) })
		})
	})
	c.Sim.Run(5 * time.Minute)
	if err := c.Err(); err != nil {
		t.Fatalf("protocol error or oracle violation: %v", err)
	}
	if served != 7 {
		t.Fatalf("served %d of 7 surviving requests", served)
	}
	if !victimServed {
		t.Fatal("restarted disk-loss node was never served — hint catch-up failed")
	}
	if !c.Quiesced() {
		t.Fatal("cluster did not quiesce")
	}
	if err := c.CheckTokens(); err != nil {
		t.Fatalf("token conservation: %v", err)
	}
	restarts := rec.Filter(func(e trace.Entry) bool { return e.Op == trace.OpRestart })
	if len(restarts) != 1 {
		t.Fatalf("trace recorded %d restarts, want 1", len(restarts))
	}
	if r := restarts[0]; r.Node != victim || r.Epoch != 0 {
		t.Fatalf("restart entry = %+v, want node %d at epoch 0 (disk lost)", r, victim)
	}
	if e := c.Nodes[victim].HierEngine(lock).Epoch(); e == 0 {
		t.Fatal("restarted node still at epoch 0 — never caught up to the recovered world")
	}
}

// TestChaosDiskKeptRestartRecordsEpoch pins the other restart fate: a
// node that crashes after a regeneration round and restarts with its
// disk intact reports the highest epoch its surviving state remembers,
// distinguishing it in the trace from a disk-loss (epoch 0) restart.
func TestChaosDiskKeptRestartRecordsEpoch(t *testing.T) {
	const (
		lock   proto.LockID = 1
		nodes               = 8
		first               = 3 // crashes permanently, forcing a round
		second              = 5 // crashes after the round, disk kept
	)
	rec := trace.New(1 << 16)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    nodes,
		Locks:    []proto.LockID{lock},
		Seed:     4711,
		Trace:    rec,
		Faults: &sim.FaultPlan{
			LoseOnCrash:       true,
			RetransmitTimeout: 100 * time.Millisecond,
			Crashes: []sim.CrashWindow{
				{Node: first, Start: 2 * time.Second, End: 1000 * time.Hour},
				{Node: second, Start: 10 * time.Second, End: 14 * time.Second},
			},
		},
		Recovery: &cluster.RecoveryOptions{
			ConfirmAfter: time.Second,
			ProbeTimeout: 300 * time.Millisecond,
		},
	})
	c.Sim.At(100*time.Millisecond, func() {
		c.Nodes[first].Acquire(lock, modes.W, func() {})
	})
	// The second victim participates in the regeneration round (it is
	// alive at confirmation time ~3s) and acquires afterwards, so its
	// engine carries the round's epoch when it crashes at 10s.
	served := 0
	n := c.Nodes[second]
	c.Sim.At(5*time.Second, func() {
		n.Acquire(lock, modes.W, func() {
			served++
			c.Sim.At(20*time.Millisecond, func() { n.Release(lock) })
		})
	})
	c.Sim.Run(5 * time.Minute)
	if err := c.Err(); err != nil {
		t.Fatalf("protocol error or oracle violation: %v", err)
	}
	if served != 1 {
		t.Fatalf("served %d of 1 request", served)
	}
	restarts := rec.Filter(func(e trace.Entry) bool { return e.Op == trace.OpRestart })
	if len(restarts) != 1 {
		t.Fatalf("trace recorded %d restarts, want 1 (node %d; node %d never restarts)",
			len(restarts), second, first)
	}
	if r := restarts[0]; r.Node != second || r.Epoch == 0 {
		t.Fatalf("restart entry = %+v, want node %d at the round's epoch (> 0)", r, second)
	}
}
