package cluster_test

import (
	"testing"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/introspect"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/sim"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
)

// scheduleTicks drives a watchdog runner from the virtual clock: one
// Tick per second of simulated time for n seconds, scheduled up front
// so the run stays bounded and deterministic.
func scheduleTicks(c *cluster.Cluster, wd *watchdog.Runner, n int, onTick func(i int)) {
	for i := 1; i <= n; i++ {
		i := i
		c.Sim.At(time.Duration(i)*time.Second, func() {
			if onTick != nil {
				onTick(i)
			}
			wd.Tick()
		})
	}
}

// incidentOn wires the runner's transition hook to write a stall
// incident, of the ring rec and the profiles, whenever health worsens
// past the given floor — the sim mirror of lockd's stalled→incident
// wiring (rate limit one hour, so any repeat inside the test is
// suppressed). Reading the result closes the recorder, which waits for
// the incident and cuts its CPU profile short: it returns the incidents
// written and the triggers suppressed.
func incidentOn(t *testing.T, wd *watchdog.Runner, floor watchdog.State, rec *trace.Recorder) (result func() (written, suppressed int)) {
	t.Helper()
	r := introspect.NewRecorder(0, 0)
	if err := r.EnableAutoDump(t.TempDir(), time.Hour); err != nil {
		t.Fatal(err)
	}
	r.Follow(introspect.Source{Trace: rec})
	t.Cleanup(r.Close)
	suppressed := 0
	wd.OnTransition(func(from, to watchdog.State, h watchdog.Health) {
		if to >= floor && to > from {
			path, err := r.TriggerDump(introspect.ReasonStall)
			if err != nil {
				t.Errorf("incident on transition to %s: %v", to, err)
			}
			if path == "" {
				suppressed++
			}
		}
	})
	return func() (int, int) {
		r.Close()
		st := r.Stats()
		if st.LastErr != nil {
			t.Fatalf("incident error: %v", st.LastErr)
		}
		return int(st.Written[introspect.ReasonStall]), suppressed
	}
}

func hasReason(h watchdog.Health, code string) bool {
	for _, r := range h.Reasons {
		if r.Code == code {
			return true
		}
	}
	return false
}

// TestWatchdogChaosWedgedRecovery wedges a regeneration round on
// purpose: the token holder and enough peers crash permanently that the
// surviving minority can never meet the majority quorum, so the
// regenerator's round stays in flight forever. The watchdog must walk
// healthy → degraded → stalled exactly once, flag the wedged round (and
// the starved waiters), and write exactly one rate-limited incident on
// the transition to stalled.
func TestWatchdogChaosWedgedRecovery(t *testing.T) {
	const (
		lock   proto.LockID = 1
		nodes               = 8
		victim              = 3
	)
	rec := trace.New(1)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	// The victim and nodes 4..7 die at 2s and never return: 3 survivors
	// against a majority quorum of 5.
	plan := &sim.FaultPlan{
		LoseOnCrash:       true,
		RetransmitTimeout: 100 * time.Millisecond,
		Crashes: []sim.CrashWindow{
			{Node: victim, Start: 2 * time.Second, End: 1000 * time.Hour},
			{Node: 4, Start: 2 * time.Second, End: 1000 * time.Hour},
			{Node: 5, Start: 2 * time.Second, End: 1000 * time.Hour},
			{Node: 6, Start: 2 * time.Second, End: 1000 * time.Hour},
			{Node: 7, Start: 2 * time.Second, End: 1000 * time.Hour},
		},
	}
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    nodes,
		Locks:    []proto.LockID{lock},
		Seed:     777,
		Trace:    rec,
		Faults:   plan,
		Recovery: &cluster.RecoveryOptions{
			ConfirmAfter: time.Second,
			ProbeTimeout: 300 * time.Millisecond,
			// Quorum 0 = majority (5 of 8): unreachable for 3 survivors.
		},
	})
	wd := watchdog.NewRunner(watchdog.Config{
		PendingGrace: 5 * time.Second,
		StalledAfter: 30 * time.Second,
		RoundGrace:   10 * time.Second,
	}, time.Second, c.HealthSample)
	incidents := incidentOn(t, wd, watchdog.Stalled, rec)

	// The victim takes W (and the token) and dies holding it; the
	// survivors' requests then wait on a round that can never commit.
	c.Sim.At(100*time.Millisecond, func() {
		c.Nodes[victim].Acquire(lock, modes.W, func() {})
	})
	for _, id := range []int{0, 1, 2} {
		n := c.Nodes[id]
		c.Sim.At(3*time.Second, func() {
			n.Acquire(lock, modes.W, func() {
				t.Errorf("node %d granted without a quorum — the wedge did not hold", n.ID)
			})
		})
	}
	scheduleTicks(c, wd, 55, nil)
	c.Sim.Run(time.Minute)

	if err := c.Err(); err != nil {
		t.Fatalf("protocol error or oracle violation: %v", err)
	}
	h := wd.Current()
	if h.State != watchdog.Stalled {
		t.Fatalf("final health %s, want stalled (reasons %+v)", h.Status, h.Reasons)
	}
	if !hasReason(h, watchdog.ReasonRecoveryWedged) {
		t.Fatalf("stalled without %s: %+v", watchdog.ReasonRecoveryWedged, h.Reasons)
	}
	tr := wd.Transitions()
	if tr[watchdog.Stalled] != 1 {
		t.Fatalf("entered stalled %d times, want exactly 1", tr[watchdog.Stalled])
	}
	if tr[watchdog.Degraded] == 0 {
		t.Fatal("never degraded before stalling — escalation skipped a stage")
	}
	if written, suppressed := incidents(); written != 1 {
		t.Fatalf("stall wrote %d incidents, want exactly 1 (suppressed %d)", written, suppressed)
	}
	// The sample itself must pin the wedge: one round in flight, three
	// starved waiters.
	s := c.HealthSample()
	if s.RoundsInFlight == 0 {
		t.Fatal("no recovery round in flight at the end of the run")
	}
	if s.Waiters != 3 {
		t.Fatalf("%d waiters at the end of the run, want 3", s.Waiters)
	}
}

// TestWatchdogChaosFsyncStalls overlays an injected fsync-stall
// schedule (the simulator models no disk) on a healthy workload: two
// stall bursts, each long enough to trip the streak detector. Health
// must flip to degraded for each burst and recover between them; an
// incident is written on the first flip and rate-limited away on the
// second, so the two bursts cost exactly one.
func TestWatchdogChaosFsyncStalls(t *testing.T) {
	const lock proto.LockID = 1
	rec := trace.New(1)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    4,
		Locks:    []proto.LockID{lock},
		Seed:     42,
		Trace:    rec,
	})
	// Injected stall schedule: bursts at ticks [10,15] and [25,30],
	// each ≥ 3 consecutive evaluations with fresh stalls.
	var stalls uint64
	sample := func() watchdog.Sample {
		s := c.HealthSample()
		s.FsyncStalls = stalls
		return s
	}
	wd := watchdog.NewRunner(watchdog.Config{FsyncStreak: 3}, time.Second, sample)
	incidents := incidentOn(t, wd, watchdog.Degraded, rec)

	// A light closed-loop workload keeps grants flowing so the only
	// health signal is the injected stalls.
	var step func(node int)
	step = func(node int) {
		n := c.Nodes[node]
		n.Acquire(lock, modes.W, func() {
			c.Sim.At(10*time.Millisecond, func() {
				n.Release(lock)
				c.Sim.At(50*time.Millisecond, func() { step(node) })
			})
		})
	}
	for i := 0; i < 4; i++ {
		i := i
		c.Sim.At(time.Duration(i)*25*time.Millisecond, func() { step(i) })
	}
	scheduleTicks(c, wd, 35, func(i int) {
		if (i >= 10 && i <= 15) || (i >= 25 && i <= 30) {
			stalls++
		}
	})
	c.Sim.Run(36 * time.Second)

	if err := c.Err(); err != nil {
		t.Fatalf("protocol error or oracle violation: %v", err)
	}
	tr := wd.Transitions()
	if tr[watchdog.Degraded] != 2 {
		t.Fatalf("entered degraded %d times, want exactly 2 (one per burst)", tr[watchdog.Degraded])
	}
	if tr[watchdog.Healthy] != 2 {
		t.Fatalf("recovered to healthy %d times, want exactly 2", tr[watchdog.Healthy])
	}
	if tr[watchdog.Stalled] != 0 {
		t.Fatalf("entered stalled %d times, want 0 — fsync stalls alone never stall", tr[watchdog.Stalled])
	}
	if h := wd.Current(); h.State != watchdog.Healthy {
		t.Fatalf("final health %s, want healthy: %+v", h.Status, h.Reasons)
	}
	written, suppressed := incidents()
	if written != 1 {
		t.Fatalf("bursts wrote %d incidents, want exactly 1 (the second is rate-limited)", written)
	}
	if suppressed != 1 {
		t.Fatalf("rate limit suppressed %d incidents, want exactly 1", suppressed)
	}
}

// TestWatchdogChaosHealthyNoFalsePositives runs a lossy-but-live
// workload — drops, duplicates, delay spikes, no partitions or crashes
// — under a ticking watchdog. The cluster absorbs this chaos within the
// grace thresholds, so any transition away from healthy is a false
// positive and fails the run.
func TestWatchdogChaosHealthyNoFalsePositives(t *testing.T) {
	const lock proto.LockID = 1
	rec := trace.New(1)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    8,
		Locks:    []proto.LockID{lock},
		Seed:     1234,
		Trace:    rec,
		Faults: &sim.FaultPlan{
			DropRate:          0.02,
			DupRate:           0.01,
			SpikeRate:         0.01,
			SpikeDelay:        sim.Fixed(time.Second),
			RetransmitTimeout: 200 * time.Millisecond,
		},
	})
	wd := watchdog.NewRunner(watchdog.Config{}, time.Second, c.HealthSample)
	wd.OnTransition(func(from, to watchdog.State, h watchdog.Health) {
		t.Errorf("false positive: health %s -> %s: %+v", from, to, h.Reasons)
	})

	granted := 0
	var step func(node, round int)
	step = func(node, round int) {
		if round >= 4 {
			return
		}
		n := c.Nodes[node]
		n.Acquire(lock, chaosMode(cluster.Hierarchical, node), func() {
			granted++
			c.Sim.At(20*time.Millisecond, func() {
				n.Release(lock)
				c.Sim.At(time.Duration(node+1)*10*time.Millisecond, func() {
					step(node, round+1)
				})
			})
		})
	}
	for i := 0; i < 8; i++ {
		i := i
		c.Sim.At(time.Duration(i)*5*time.Millisecond, func() { step(i, 0) })
	}
	scheduleTicks(c, wd, 60, nil)
	c.Sim.Run(2 * time.Minute)

	if err := c.Err(); err != nil {
		t.Fatalf("protocol error or oracle violation: %v", err)
	}
	if want := 8 * 4; granted != want {
		t.Fatalf("granted %d of %d requests (workload stalled under faults)", granted, want)
	}
	if c.Net.FaultStats.Total() == 0 {
		t.Fatal("fault plan injected nothing — the healthy-chaos run is vacuous")
	}
	tr := wd.Transitions()
	for _, s := range watchdog.States {
		if tr[s] != 0 {
			t.Fatalf("watchdog made %d transitions into %s during healthy chaos", tr[s], s)
		}
	}
	if h := wd.Current(); h.State != watchdog.Healthy {
		t.Fatalf("final health %s, want healthy: %+v", h.Status, h.Reasons)
	}
}

// TestWatchdogChaosDeterministic reruns the wedged-recovery scenario's
// fingerprint: the watchdog verdict sequence is a pure function of the
// seeded run, so its transition counts must be bit-identical.
func TestWatchdogChaosDeterministic(t *testing.T) {
	run := func() (map[watchdog.State]uint64, string) {
		const lock proto.LockID = 1
		c := cluster.New(cluster.Config{
			Protocol: cluster.Hierarchical,
			Nodes:    8,
			Locks:    []proto.LockID{lock},
			Seed:     777,
			Faults: &sim.FaultPlan{
				LoseOnCrash:       true,
				RetransmitTimeout: 100 * time.Millisecond,
				Crashes: []sim.CrashWindow{
					{Node: 3, Start: 2 * time.Second, End: 1000 * time.Hour},
					{Node: 4, Start: 2 * time.Second, End: 1000 * time.Hour},
					{Node: 5, Start: 2 * time.Second, End: 1000 * time.Hour},
					{Node: 6, Start: 2 * time.Second, End: 1000 * time.Hour},
					{Node: 7, Start: 2 * time.Second, End: 1000 * time.Hour},
				},
			},
			Recovery: &cluster.RecoveryOptions{
				ConfirmAfter: time.Second,
				ProbeTimeout: 300 * time.Millisecond,
			},
		})
		wd := watchdog.NewRunner(watchdog.Config{}, time.Second, c.HealthSample)
		c.Sim.At(100*time.Millisecond, func() {
			c.Nodes[3].Acquire(lock, modes.W, func() {})
		})
		for _, id := range []int{0, 1, 2} {
			n := c.Nodes[id]
			c.Sim.At(3*time.Second, func() { n.Acquire(lock, modes.W, func() {}) })
		}
		scheduleTicks(c, wd, 55, nil)
		c.Sim.Run(time.Minute)
		return wd.Transitions(), wd.Current().Status
	}
	tr1, st1 := run()
	tr2, st2 := run()
	if st1 != st2 {
		t.Fatalf("final states differ across identical seeded runs: %s vs %s", st1, st2)
	}
	for _, s := range watchdog.States {
		if tr1[s] != tr2[s] {
			t.Fatalf("transition counts into %s differ: %d vs %d", s, tr1[s], tr2[s])
		}
	}
}
