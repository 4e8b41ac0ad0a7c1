package cluster_test

import (
	"strings"
	"testing"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/introspect"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// TestDetectDeadlockOppositeOrder induces the textbook client deadlock:
// two nodes acquire two exclusive locks in opposite orders.
func TestDetectDeadlockOppositeOrder(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{1, 2},
		Seed:     41,
	})
	// Node 1: lock 1 then lock 2. Node 2: lock 2 then lock 1.
	c.Nodes[1].Acquire(1, modes.W, func() {
		c.Nodes[1].Acquire(2, modes.W, func() {})
	})
	c.Nodes[2].Acquire(2, modes.W, func() {
		c.Nodes[2].Acquire(1, modes.W, func() {})
	})
	c.Sim.Run(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Quiesced() {
		t.Fatal("expected the cluster to be stuck, not quiesced")
	}
	wf := c.Inventory().WaitFor
	if len(wf.Cycles) != 1 {
		t.Fatalf("cycles = %v, want exactly one", wf.Cycles)
	}
	if cyc := wf.Cycles[0]; len(cyc) != 2 || cyc[0] != 1 || cyc[1] != 2 {
		t.Fatalf("cycle = %v, want the 2-node cycle [1 2]", cyc)
	}
	// Each node waits for the lock the other holds.
	want := []introspect.WaitEdge{
		{Waiter: 1, Holder: 2, Lock: 2, Wants: "W", Holds: "W"},
		{Waiter: 2, Holder: 1, Lock: 1, Wants: "W", Holds: "W"},
	}
	if len(wf.Edges) != len(want) {
		t.Fatalf("edges = %+v, want %+v", wf.Edges, want)
	}
	for i, e := range wf.Edges {
		if e.WaitNS <= 0 {
			t.Errorf("edge %+v has no wait duration", e)
		}
		e.WaitNS = 0
		if e != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, e, want[i])
		}
	}
	if !strings.Contains(introspect.FormatCluster(c.Inventory()), "DEADLOCK: 1 -> 2 -> 1") {
		t.Fatal("cycle must render")
	}
}

// TestNoFalseDeadlocks checks that ordinary waiting (queued behind a
// holder, no cycle) is not reported.
func TestNoFalseDeadlocks(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{1},
		Seed:     42,
	})
	c.Nodes[1].Acquire(1, modes.W, func() {})
	c.Sim.Run(5 * time.Second)
	c.Nodes[2].Acquire(1, modes.W, func() {}) // waits behind node 1
	c.Sim.Run(5 * time.Second)
	wf := c.Inventory().WaitFor
	if wf.Deadlocked() {
		t.Fatalf("false deadlock reported: %v", wf.Cycles)
	}
	if len(wf.Edges) != 1 || wf.Edges[0].Waiter != 2 || wf.Edges[0].Holder != 1 {
		t.Fatalf("edges = %+v, want the one contention edge 2->1", wf.Edges)
	}
	// Compatible waiting is not even an edge.
	c.Nodes[0].Acquire(1, modes.IR, func() {})
	c.Sim.Run(5 * time.Second)
	if wf = c.Inventory().WaitFor; wf.Deadlocked() {
		t.Fatalf("false deadlock on compatible wait: %v", wf.Cycles)
	}
}

// TestDetectThreeWayDeadlock induces a 3-cycle.
func TestDetectThreeWayDeadlock(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    4,
		Locks:    []proto.LockID{1, 2, 3},
		Seed:     43,
	})
	// 1 holds L1 waits L2; 2 holds L2 waits L3; 3 holds L3 waits L1.
	c.Nodes[1].Acquire(1, modes.W, func() { c.Nodes[1].Acquire(2, modes.W, func() {}) })
	c.Nodes[2].Acquire(2, modes.W, func() { c.Nodes[2].Acquire(3, modes.W, func() {}) })
	c.Nodes[3].Acquire(3, modes.W, func() { c.Nodes[3].Acquire(1, modes.W, func() {}) })
	c.Sim.Run(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	wf := c.Inventory().WaitFor
	if len(wf.Cycles) != 1 || len(wf.Cycles[0]) != 3 {
		t.Fatalf("cycles = %v, want one 3-cycle", wf.Cycles)
	}
	if len(wf.Edges) != 3 {
		t.Fatalf("edges = %+v, want the cycle's three", wf.Edges)
	}
}

// TestOrderedAcquisitionAvoidsDeadlock shows the avoidance discipline the
// paper uses for Naimi "same work": both nodes take the locks in the same
// order, so both complete.
func TestOrderedAcquisitionAvoidsDeadlock(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{1, 2},
		Seed:     44,
	})
	completed := 0
	both := func(n int) {
		c.Nodes[n].Acquire(1, modes.W, func() {
			c.Nodes[n].Acquire(2, modes.W, func() {
				completed++
				c.Nodes[n].Release(2)
				c.Nodes[n].Release(1)
			})
		})
	}
	both(1)
	both(2)
	c.Sim.Run(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if completed != 2 {
		t.Fatalf("completed = %d, want 2", completed)
	}
	if wf := c.Inventory().WaitFor; wf.Deadlocked() || len(wf.Edges) != 0 {
		t.Fatalf("unexpected wait-for graph after completion: %+v", wf)
	}
	if !c.Quiesced() {
		t.Fatal("not quiesced")
	}
}
