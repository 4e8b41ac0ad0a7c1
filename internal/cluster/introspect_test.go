package cluster_test

import (
	"strings"
	"testing"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/introspect"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/sim"
	"hierlock/internal/trace"
)

// TestInventoryDetectsInjectedCycle is the observability acceptance
// scenario: three nodes acquire three exclusive locks in an unordered
// rotation (1 holds L1 wants L2, 2 holds L2 wants L3, 3 holds L3 wants
// L1), and the merged inventory's wait-for graph must flag exactly that
// cycle — while the online protocol auditor, watching the same run,
// stays at zero violations (a client-level deadlock is not a protocol
// bug, and must not read as one).
func TestInventoryDetectsInjectedCycle(t *testing.T) {
	rec := trace.New(1)
	reg := metrics.NewRegistry()
	auditor := attachAuditor(rec, reg)
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    4,
		Locks:    []proto.LockID{1, 2, 3},
		Seed:     77,
		Trace:    rec,
	})
	c.Nodes[1].Acquire(1, modes.W, func() { c.Nodes[1].Acquire(2, modes.W, func() {}) })
	c.Nodes[2].Acquire(2, modes.W, func() { c.Nodes[2].Acquire(3, modes.W, func() {}) })
	c.Nodes[3].Acquire(3, modes.W, func() { c.Nodes[3].Acquire(1, modes.W, func() {}) })
	c.Sim.Run(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	inv := c.Inventory()
	if !inv.WaitFor.Deadlocked() {
		t.Fatalf("wait-for graph missed the cycle: %+v", inv.WaitFor)
	}
	if len(inv.WaitFor.Cycles) != 1 {
		t.Fatalf("cycles = %v, want exactly one", inv.WaitFor.Cycles)
	}
	cyc := inv.WaitFor.Cycles[0]
	if len(cyc) != 3 || cyc[0] != 1 || cyc[1] != 2 || cyc[2] != 3 {
		t.Fatalf("cycle = %v, want canonical [1 2 3]", cyc)
	}
	// Every edge carries the waiter's virtual wait duration.
	for _, e := range inv.WaitFor.Edges {
		if e.WaitNS <= 0 {
			t.Errorf("edge %+v has no wait duration", e)
		}
	}
	// The rendered report names the deadlock the way `lockctl locks
	// --cluster` would.
	out := introspect.FormatCluster(inv)
	if !strings.Contains(out, "DEADLOCK: 1 -> 2 -> 3 -> 1") {
		t.Fatalf("report missing deadlock line:\n%s", out)
	}
	// The protocol itself behaved: zero invariant violations.
	requireCleanAudit(t, auditor, reg)
}

// TestInventoryNoCycleUnderContention: plain queuing behind a holder is
// an edge at most, never a cycle, and compatible waiting is not even an
// edge.
func TestInventoryNoCycleUnderContention(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{1},
		Seed:     78,
	})
	c.Nodes[1].Acquire(1, modes.W, func() {})
	c.Sim.Run(5 * time.Second)
	c.Nodes[2].Acquire(1, modes.W, func() {})
	c.Sim.Run(5 * time.Second)

	inv := c.Inventory()
	if inv.WaitFor.Deadlocked() {
		t.Fatalf("false deadlock: %+v", inv.WaitFor)
	}
	found := false
	for _, e := range inv.WaitFor.Edges {
		if e.Waiter == 2 && e.Holder == 1 && e.Lock == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing contention edge 2->1: %+v", inv.WaitFor.Edges)
	}
}

// TestInventorySkipsCrashedNodes: a crashed node's wiped state must not
// pollute the merge (matching an unreachable peer in the live path).
func TestInventorySkipsCrashedNodes(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{1},
		Seed:     79,
		Faults: &sim.FaultPlan{
			Crashes: []sim.CrashWindow{{Node: 2, Start: 2 * time.Second, End: 20 * time.Second}},
		},
	})
	c.Nodes[1].Acquire(1, modes.W, func() {})
	c.Sim.Run(6 * time.Second) // node 2's crash window is open
	inv := c.Inventory()
	for _, n := range inv.Nodes {
		if n.Node == 2 {
			t.Fatalf("crashed node present in merge: %+v", inv.Nodes)
		}
	}
}
