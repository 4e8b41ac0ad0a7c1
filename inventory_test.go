package hierlock_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/introspect"
)

// mergedInventory merges every member's inventory into the cluster view
// the way `lockctl locks --cluster` does, wait-for graph and deadlock
// cycles included.
func mergedInventory(cl *hierlock.Cluster) introspect.Cluster {
	nodes := make([]introspect.NodeInventory, cl.Size())
	for i := range nodes {
		nodes[i] = cl.Member(i).Inventory()
	}
	return introspect.Merge(nodes)
}

// waitEdges polls the merged view until its wait-for graph has n edges.
func waitEdges(t *testing.T, cl *hierlock.Cluster, n int) introspect.Cluster {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := mergedInventory(cl)
		if len(c.WaitFor.Edges) == n {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("wait-for edges = %+v, want %d", c.WaitFor.Edges, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdThenWait makes member i of cl hold W on hold[i], and once every
// member holds its lock, ask for W on want[i] in the background. It
// cleans up at the end of the test: the waiting Locks are canceled (a
// member releases whatever it is granted after that), the holds
// released.
func holdThenWait(t *testing.T, cl *hierlock.Cluster, hold, want map[int]string) {
	t.Helper()
	for i, res := range hold {
		l, err := cl.Member(i).Lock(context.Background(), res, hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = l.Unlock() })
	}
	for i, res := range want {
		lockInBackground(t, cl.Member(i), res, hierlock.W)
	}
}

// lockInBackground asks m for mode on res in the background. At the end
// of the test the Lock is canceled, or released if it was granted; a
// cleanup registered after the holds it waits on runs before theirs.
func lockInBackground(t *testing.T, m *hierlock.Member, res string, mode hierlock.Mode) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if l, err := m.Lock(ctx, res, mode); err == nil {
			_ = l.Unlock()
		}
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// edgeKey is an edge without its lock ID and wait duration.
func edgeKey(e introspect.WaitEdge) introspect.WaitEdge {
	e.Lock, e.WaitNS = 0, 0
	return e
}

// TestInventoryCycleOppositeOrder induces the textbook client deadlock on
// live members: two of them take two exclusive locks in opposite orders.
// The merged inventory finds the one two-node cycle, with each member
// waiting on the lock the other holds, and renders it.
func TestInventoryCycleOppositeOrder(t *testing.T) {
	t.Parallel()
	cl, err := hierlock.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	holdThenWait(t, cl, map[int]string{1: "dl-a", 2: "dl-b"}, map[int]string{1: "dl-b", 2: "dl-a"})

	c := waitEdges(t, cl, 2)
	wf := c.WaitFor
	if len(wf.Cycles) != 1 || len(wf.Cycles[0]) != 2 || wf.Cycles[0][0] != 1 || wf.Cycles[0][1] != 2 {
		t.Fatalf("cycles = %v, want the 2-node cycle [1 2]", wf.Cycles)
	}
	want := map[introspect.WaitEdge]bool{
		{Waiter: 1, Holder: 2, Resource: "dl-b", Wants: "W", Holds: "W"}: true,
		{Waiter: 2, Holder: 1, Resource: "dl-a", Wants: "W", Holds: "W"}: true,
	}
	for _, e := range wf.Edges {
		if e.WaitNS <= 0 {
			t.Errorf("edge %+v has no wait duration", e)
		}
		if !want[edgeKey(e)] {
			t.Errorf("edge %+v, want one of %v", e, want)
		}
	}
	if !strings.Contains(introspect.FormatCluster(c), "DEADLOCK: 1 -> 2 -> 1") {
		t.Errorf("the cycle does not render:\n%s", introspect.FormatCluster(c))
	}
}

// TestInventoryCycleThreeWay: three members each hold one lock and ask
// for the next one's, closing a three-node cycle the merge must find.
func TestInventoryCycleThreeWay(t *testing.T) {
	t.Parallel()
	cl, err := hierlock.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	holdThenWait(t, cl, map[int]string{0: "ring-a", 1: "ring-b", 2: "ring-c"},
		map[int]string{0: "ring-b", 1: "ring-c", 2: "ring-a"})
	wf := waitEdges(t, cl, 3).WaitFor
	if len(wf.Cycles) != 1 || len(wf.Cycles[0]) != 3 {
		t.Fatalf("cycles = %v, want one 3-node cycle", wf.Cycles)
	}
}

// TestInventoryThreeWayCycleRenders: members 1, 2 and 3 of four each
// hold one lock and ask for the next one's, while member 0, the static
// root, takes no part. The merge finds exactly the canonical cycle
// [1 2 3], every edge carries its wait, the report names the deadlock
// the way `lockctl locks --cluster` prints it, and the protocol, audited
// across every member's ring, did nothing wrong on the way.
func TestInventoryThreeWayCycleRenders(t *testing.T) {
	t.Parallel()
	cl, err := hierlock.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	au := newSharedAudit(t)
	for i := 0; i < cl.Size(); i++ {
		au.attach(cl.Member(i))
	}
	holdThenWait(t, cl, map[int]string{1: "tri-a", 2: "tri-b", 3: "tri-c"},
		map[int]string{1: "tri-b", 2: "tri-c", 3: "tri-a"})

	c := waitEdges(t, cl, 3)
	wf := c.WaitFor
	if len(wf.Cycles) != 1 {
		t.Fatalf("cycles = %v, want exactly one", wf.Cycles)
	}
	if cyc := wf.Cycles[0]; len(cyc) != 3 || cyc[0] != 1 || cyc[1] != 2 || cyc[2] != 3 {
		t.Fatalf("cycle = %v, want canonical [1 2 3]", cyc)
	}
	for _, e := range wf.Edges {
		if e.WaitNS <= 0 {
			t.Errorf("edge %+v has no wait duration", e)
		}
	}
	if out := introspect.FormatCluster(c); !strings.Contains(out, "DEADLOCK: 1 -> 2 -> 3 -> 1") {
		t.Errorf("report missing the deadlock line:\n%s", out)
	}
	au.check()
}

// TestInventoryNoFalseDeadlocks: one member waiting behind another's
// exclusive hold is exactly one edge, from the waiter to the holder, and
// no cycle; a third member's intention request queued behind them adds
// no cycle either.
func TestInventoryNoFalseDeadlocks(t *testing.T) {
	t.Parallel()
	cl, err := hierlock.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	holdThenWait(t, cl, map[int]string{1: "nf"}, map[int]string{2: "nf"})
	wf := waitEdges(t, cl, 1).WaitFor
	if wf.Deadlocked() {
		t.Fatalf("false deadlock reported: %v", wf.Cycles)
	}
	if e := wf.Edges[0]; e.Waiter != 2 || e.Holder != 1 || e.Resource != "nf" {
		t.Fatalf("edge %+v, want the one contention edge 2->1", e)
	}
	lockInBackground(t, cl.Member(0), "nf", hierlock.IR)
	if wf = waitEdges(t, cl, 2).WaitFor; wf.Deadlocked() {
		t.Fatalf("false deadlock with an intention waiter: %v", wf.Cycles)
	}
}

// TestInventoryNoCycleUnderContention: members queued behind one holder
// wait, but on nobody who waits on them; the merge shows the edges and
// no deadlock.
func TestInventoryNoCycleUnderContention(t *testing.T) {
	t.Parallel()
	cl, err := hierlock.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	holdThenWait(t, cl, map[int]string{1: "hot"}, map[int]string{0: "hot", 2: "hot"})
	wf := waitEdges(t, cl, 2).WaitFor
	if wf.Deadlocked() {
		t.Fatalf("plain contention flagged as deadlock: %v", wf.Cycles)
	}
	for _, e := range wf.Edges {
		if e.Holder != 1 || e.Resource != "hot" {
			t.Errorf("edge %+v, want a wait on member 1's hold of hot", e)
		}
	}
}

// TestInventoryNoCycleSortedAcquisition: the same two locks taken in the
// same order by every member never deadlock. Every round completes, and
// the merged view afterwards has no edge and no cycle. (A view merged
// mid-run may show a cycle that is not there: each member's inventory
// reads its locks one stripe at a time, so a deadlock is a cycle that
// persists, not one sample.)
func TestInventoryNoCycleSortedAcquisition(t *testing.T) {
	t.Parallel()
	cl, err := hierlock.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < cl.Size(); i++ {
		m := cl.Member(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				var held []*hierlock.Lock
				for _, res := range []string{"sorted-a", "sorted-b"} {
					l, err := m.Lock(ctx, res, hierlock.W)
					if err != nil {
						t.Errorf("member %d round %d: %v", m.ID(), round, err)
						return
					}
					held = append(held, l)
				}
				for _, l := range held {
					_ = l.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if wf := mergedInventory(cl).WaitFor; len(wf.Edges) != 0 || wf.Deadlocked() {
		t.Fatalf("wait-for graph after every round completed: %+v", wf)
	}
}
