package cluster_test

import (
	"testing"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/sim"
	"hierlock/internal/trace"
)

// TestJoinDuringRecoveryRound grows the cluster while a token-holder
// crash is being recovered: the joiner lands mid-round with no seed for
// the lock, issues an epoch-0 request into the recovered world, and
// must be fenced, hinted up to the round's epoch, and finally served —
// with token conservation intact and the auditor silent.
func TestJoinDuringRecoveryRound(t *testing.T) {
	const (
		lock   proto.LockID = 1
		nodes               = 4
		victim              = 3
	)
	rec := trace.New(1)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    nodes,
		Locks:    []proto.LockID{lock},
		Seed:     77,
		Trace:    rec,
		Faults:   recoveryCrashPlan(victim),
		Recovery: &cluster.RecoveryOptions{
			ConfirmAfter: time.Second,
			ProbeTimeout: 300 * time.Millisecond,
		},
	})
	// The victim takes W — and the token — into a permanent crash at 2s;
	// confirmations land around 3s and the regeneration round follows.
	c.Sim.At(100*time.Millisecond, func() {
		c.Nodes[victim].Acquire(lock, modes.W, func() {})
	})
	served := 0
	var joiner *cluster.Node
	c.Sim.At(3100*time.Millisecond, func() {
		n, err := c.Join()
		if err != nil {
			t.Errorf("join: %v", err)
			return
		}
		joiner = n
		// The joiner requests immediately: depending on round progress
		// this request is fenced as stale and re-issued via a recovery
		// hint — either way it must eventually be granted.
		n.Acquire(lock, modes.W, func() {
			served++
			c.Sim.At(20*time.Millisecond, func() { n.Release(lock) })
		})
	})
	// Survivors keep working across the join.
	for _, id := range []int{0, 1, 2} {
		n := c.Nodes[id]
		c.Sim.At(time.Duration(2500+400*id)*time.Millisecond, func() {
			n.Acquire(lock, modes.W, func() {
				served++
				c.Sim.At(20*time.Millisecond, func() { n.Release(lock) })
			})
		})
	}
	c.Sim.Run(5 * time.Minute)
	if err := c.Err(); err != nil {
		t.Fatalf("protocol error or oracle violation: %v", err)
	}
	if served != 4 {
		t.Fatalf("served %d of 4 requests (join did not converge)", served)
	}
	if joiner == nil {
		t.Fatal("join never ran")
	}
	if got := len(c.Members()); got != nodes+1 {
		t.Fatalf("membership size = %d, want %d", got, nodes+1)
	}
	if !c.Quiesced() {
		t.Fatal("cluster did not quiesce")
	}
	if err := c.CheckTokens(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaveHandsOffTokens shrinks the cluster while the leaver holds
// hot tokens (but no client locks): its nominated tokens regenerate
// among the survivors, who keep serving the locks afterwards.
func TestLeaveHandsOffTokens(t *testing.T) {
	for _, p := range []cluster.Protocol{cluster.Hierarchical} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			locks := []proto.LockID{1, 2}
			rec := trace.New(1)
			reg := metrics.NewRegistry()
			auditor := attachAuditor(rec, reg)
			t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
			c := cluster.New(cluster.Config{
				Protocol: p,
				Nodes:    4,
				Locks:    locks,
				Seed:     13,
				Trace:    rec,
				Recovery: &cluster.RecoveryOptions{ProbeTimeout: 300 * time.Millisecond},
			})
			leaver := c.Nodes[2]
			// The leaver acquires and releases W on both locks, pulling
			// both tokens to itself; they ride the leave hand-off back out.
			for _, l := range locks {
				l := l
				c.Sim.At(10*time.Millisecond, func() {
					leaver.Acquire(l, modes.W, func() {
						c.Sim.At(10*time.Millisecond, func() { leaver.Release(l) })
					})
				})
			}
			left := false
			c.Sim.At(2*time.Second, func() {
				if err := c.Leave(leaver.ID); err != nil {
					t.Errorf("leave: %v", err)
					return
				}
				left = true
			})
			served := 0
			for _, id := range []int{0, 1, 3} {
				n := c.Nodes[id]
				for _, l := range locks {
					l := l
					c.Sim.At(time.Duration(3000+100*id)*time.Millisecond, func() {
						n.Acquire(l, modes.W, func() {
							served++
							c.Sim.At(10*time.Millisecond, func() { n.Release(l) })
						})
					})
				}
			}
			c.Sim.Run(5 * time.Minute)
			if err := c.Err(); err != nil {
				t.Fatalf("protocol error or oracle violation: %v", err)
			}
			if !left {
				t.Fatal("leave never succeeded")
			}
			if served != 6 {
				t.Fatalf("served %d of 6 post-leave requests", served)
			}
			if got := len(c.Members()); got != 3 {
				t.Fatalf("membership size = %d, want 3", got)
			}
			if !c.Quiesced() {
				t.Fatal("cluster did not quiesce")
			}
			if err := c.CheckTokens(); err != nil {
				t.Fatalf("token conservation after leave: %v", err)
			}
		})
	}
}

// TestLeaveRefusedWhileHolding: a member holding a client lock cannot
// leave — the live runtime returns the same refusal so operators release
// (or let the lease lapse) first.
func TestLeaveRefusedWhileHolding(t *testing.T) {
	const lock proto.LockID = 1
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{lock},
		Seed:     5,
		Recovery: &cluster.RecoveryOptions{},
	})
	n := c.Nodes[1]
	held := false
	n.Acquire(lock, modes.W, func() { held = true })
	c.Sim.Run(time.Minute)
	if !held {
		t.Fatal("setup acquisition never granted")
	}
	if err := c.Leave(n.ID); err == nil {
		t.Fatal("leave succeeded while holding a lock")
	}
	if got := len(c.Members()); got != 3 {
		t.Fatalf("refused leave changed membership: size = %d", got)
	}
	n.Release(lock)
	c.Sim.Run(time.Minute)
	if err := c.Leave(n.ID); err != nil {
		t.Fatalf("leave after release: %v", err)
	}
}

// TestRootLeaveRegeneratesImplicitTokens: node 0 leaves at epoch 0
// without ever creating an engine — its tokens exist only implicitly in
// the initial topology. The leave must still nominate and regenerate
// them, or they are lost forever.
func TestRootLeaveRegeneratesImplicitTokens(t *testing.T) {
	locks := []proto.LockID{1, 2, 3}
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    locks,
		Seed:     9,
		Recovery: &cluster.RecoveryOptions{ProbeTimeout: 300 * time.Millisecond},
	})
	if err := c.Leave(0); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, l := range locks {
		l := l
		n := c.Nodes[1]
		c.Sim.At(100*time.Millisecond, func() {
			n.Acquire(l, modes.W, func() {
				served++
				c.Sim.At(10*time.Millisecond, func() { n.Release(l) })
			})
		})
	}
	c.Sim.Run(5 * time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if served != len(locks) {
		t.Fatalf("served %d of %d requests after root leave", served, len(locks))
	}
	if err := c.CheckTokens(); err != nil {
		t.Fatalf("implicit tokens lost with the departed root: %v", err)
	}
}

// membershipChaosRun drives a seeded scenario with a join and a leave
// under network chaos, returning its full fingerprint. The leave
// retries on refusal (the target may still be mid-cycle), which is
// itself deterministic: the retry schedule depends only on simulated
// state.
func membershipChaosRun(t *testing.T, seed int64) (c *cluster.Cluster, granted int) {
	t.Helper()
	const lock proto.LockID = 1
	rec := trace.New(1)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	t.Cleanup(func() { requireCleanAudit(t, auditor, reg) })
	c = cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    6,
		Locks:    []proto.LockID{lock},
		Seed:     seed,
		Trace:    rec,
		Faults: &sim.FaultPlan{
			DropRate:          0.02,
			DupRate:           0.01,
			SpikeRate:         0.01,
			SpikeDelay:        sim.Fixed(500 * time.Millisecond),
			RetransmitTimeout: 200 * time.Millisecond,
		},
		Recovery: &cluster.RecoveryOptions{ProbeTimeout: 300 * time.Millisecond},
	})
	cycle := func(n *cluster.Node, rounds int) {
		var step func(r int)
		step = func(r int) {
			if r >= rounds {
				return
			}
			n.Acquire(lock, chaosMode(cluster.Hierarchical, int(n.ID)), func() {
				granted++
				c.Sim.At(20*time.Millisecond, func() {
					n.Release(lock)
					c.Sim.At(time.Duration(n.ID+1)*10*time.Millisecond, func() { step(r + 1) })
				})
			})
		}
		step(0)
	}
	for i := 0; i < 6; i++ {
		n := c.Nodes[i]
		c.Sim.At(time.Duration(i)*5*time.Millisecond, func() { cycle(n, 3) })
	}
	// Grow at 3s: the joiner runs its own cycles once admitted.
	c.Sim.At(3*time.Second, func() {
		n, err := c.Join()
		if err != nil {
			t.Errorf("join: %v", err)
			return
		}
		cycle(n, 3)
	})
	// Shrink at 8s: node 5 departs once idle (retrying deterministically
	// while its last cycle drains).
	var tryLeave func()
	tryLeave = func() {
		if err := c.Leave(5); err != nil {
			c.Sim.At(500*time.Millisecond, tryLeave)
		}
	}
	c.Sim.At(8*time.Second, tryLeave)
	c.Sim.Run(30 * time.Minute)
	return c, granted
}

// TestMembershipChaosDeterministic reruns the same seeded join/leave
// chaos scenario and requires bit-identical fault counters, message
// metrics, grant counts and event totals: membership changes must live
// inside the deterministic envelope like every other simulated event.
func TestMembershipChaosDeterministic(t *testing.T) {
	type fingerprint struct {
		faults  metrics.Faults
		byKind  [14]uint64
		granted int
		members int
		fired   uint64
	}
	run := func() fingerprint {
		c, granted := membershipChaosRun(t, 4711)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if !c.Quiesced() {
			t.Fatal("cluster did not quiesce")
		}
		if err := c.CheckTokens(); err != nil {
			t.Fatal(err)
		}
		if want := 6*3 + 3; granted != want {
			t.Fatalf("granted %d of %d", granted, want)
		}
		return fingerprint{
			faults:  c.Net.FaultStats,
			byKind:  c.Net.Metrics.ByKind,
			granted: granted,
			members: len(c.Members()),
			fired:   c.Sim.Fired(),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("seeded membership chaos run not reproducible:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
}
