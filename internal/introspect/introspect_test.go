package introspect_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hierlock/internal/introspect"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>, rewriting the file when
// -update is set.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// cycleFixture is the textbook unordered-acquisition deadlock as three
// merged inventories: node 0 holds "accounts" and waits on "billing",
// node 1 holds "billing" and waits on "ledger", node 2 holds "ledger"
// and waits on "accounts" — every wait conflicting (W vs W).
func cycleFixture() []introspect.NodeInventory {
	held := func(lock uint64, res string) introspect.LockInfo {
		return introspect.LockInfo{
			Lock: lock, Resource: res, Token: true, Held: "W", Parent: -1,
		}
	}
	wait := func(lock uint64, parent int, waitNS int64) introspect.LockInfo {
		return introspect.LockInfo{
			Lock: lock, Parent: parent,
			Waiter: &introspect.Waiter{Mode: "W", WaitNS: waitNS},
		}
	}
	return []introspect.NodeInventory{
		{Node: 0, Locks: []introspect.LockInfo{held(1, "accounts"), wait(2, 1, 1500e6)}},
		{Node: 1, Locks: []introspect.LockInfo{held(2, "billing"), wait(3, 2, 1200e6)}},
		{Node: 2, Locks: []introspect.LockInfo{held(3, "ledger"), wait(1, 0, 900e6)}},
	}
}

func TestBuildWaitForDetectsCycle(t *testing.T) {
	c := introspect.Merge(cycleFixture())
	w := c.WaitFor
	if len(w.Edges) != 3 {
		t.Fatalf("edges = %+v, want 3", w.Edges)
	}
	wantEdges := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	for i, e := range w.Edges {
		if e.Waiter != wantEdges[i][0] || e.Holder != wantEdges[i][1] {
			t.Errorf("edge[%d] = %d->%d, want %d->%d", i, e.Waiter, e.Holder, wantEdges[i][0], wantEdges[i][1])
		}
		if e.Wants != "W" || e.Holds != "W" {
			t.Errorf("edge[%d] modes = wants %s holds %s, want W/W", i, e.Wants, e.Holds)
		}
	}
	if !w.Deadlocked() {
		t.Fatal("Deadlocked() = false, want true")
	}
	if len(w.Cycles) != 1 {
		t.Fatalf("cycles = %v, want exactly one", w.Cycles)
	}
	want := []int{0, 1, 2}
	got := w.Cycles[0]
	if len(got) != len(want) {
		t.Fatalf("cycle = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle = %v, want canonical %v (smallest node leads)", got, want)
		}
	}
}

// TestConfirmKeepsRepeatedCycles: a cycle only one of two views shows is
// not a deadlock (locks moved between a member's stripe reads), and a
// cycle both show is.
func TestConfirmKeepsRepeatedCycles(t *testing.T) {
	cycle := introspect.Merge(cycleFixture()).WaitFor
	acyclic := cycleFixture()
	acyclic[2].Locks = acyclic[2].Locks[:1] // node 2 no longer waits
	moved := introspect.Merge(acyclic).WaitFor
	if moved.Deadlocked() {
		t.Fatalf("fixture without node 2's wait has cycles %v", moved.Cycles)
	}
	for _, tc := range []struct {
		name          string
		first, second introspect.WaitFor
		want          bool
	}{
		{"first view only", cycle, moved, false},
		{"second view only", moved, cycle, false},
		{"both views", cycle, cycle, true},
	} {
		w := introspect.Confirm(tc.first, tc.second)
		if w.Deadlocked() != tc.want {
			t.Errorf("%s: Deadlocked() = %v (cycles %v), want %v", tc.name, w.Deadlocked(), w.Cycles, tc.want)
		}
		if len(w.Edges) != len(tc.first.Edges) {
			t.Errorf("%s: %d edges, want the first view's %d", tc.name, len(w.Edges), len(tc.first.Edges))
		}
	}
}

// TestBuildWaitForCanonicalizesCycles checks a cycle reported from any
// DFS entry point collapses to one canonical rotation: the same fixture
// with node IDs permuted must still yield exactly one cycle.
func TestBuildWaitForCanonicalizesCycles(t *testing.T) {
	nodes := cycleFixture()
	// Renumber 0→5, 1→3, 2→4 so DFS start order differs from cycle order.
	renum := map[int]int{0: 5, 1: 3, 2: 4}
	for i := range nodes {
		nodes[i].Node = renum[nodes[i].Node]
	}
	w := introspect.Merge(nodes).WaitFor
	if len(w.Cycles) != 1 {
		t.Fatalf("cycles = %v, want exactly one after renumbering", w.Cycles)
	}
	if w.Cycles[0][0] != 3 {
		t.Fatalf("cycle = %v, want the smallest node (3) leading", w.Cycles[0])
	}
}

// TestBuildWaitForNoFalseEdges checks the conservative cases: compatible
// modes produce no edge, a node never waits on itself, and a waiter with
// no conflicting holder anywhere (token in flight) produces no edge.
func TestBuildWaitForNoFalseEdges(t *testing.T) {
	nodes := []introspect.NodeInventory{
		// Node 0 holds R; node 1 wants IR (compatible — token travel wait).
		{Node: 0, Locks: []introspect.LockInfo{
			{Lock: 1, Token: true, Held: "R", Parent: -1},
			// Node 0 also holds lock 2 AND has a pending upgrade on it:
			// must not generate a self-edge.
			{Lock: 2, Token: true, Held: "U", Pending: "W", Parent: -1},
		}},
		{Node: 1, Locks: []introspect.LockInfo{
			{Lock: 1, Parent: 0, Waiter: &introspect.Waiter{Mode: "IR", WaitNS: 10}},
			// Waiting on lock 3 which nobody holds.
			{Lock: 3, Parent: 0, Waiter: &introspect.Waiter{Mode: "W", WaitNS: 10}},
		}},
	}
	w := introspect.BuildWaitFor(nodes)
	if len(w.Edges) != 0 {
		t.Fatalf("edges = %+v, want none", w.Edges)
	}
	if w.Deadlocked() {
		t.Fatal("false deadlock")
	}
}

// TestBuildWaitForConflictEdgeNoCycle: plain contention (one waiter
// behind one conflicting holder) is an edge but never a deadlock.
func TestBuildWaitForConflictEdgeNoCycle(t *testing.T) {
	nodes := []introspect.NodeInventory{
		{Node: 0, Locks: []introspect.LockInfo{{Lock: 7, Token: true, Held: "W", Parent: -1}}},
		{Node: 1, Locks: []introspect.LockInfo{
			{Lock: 7, Parent: 0, Waiter: &introspect.Waiter{Mode: "R", WaitNS: 42}}}},
	}
	w := introspect.BuildWaitFor(nodes)
	if len(w.Edges) != 1 {
		t.Fatalf("edges = %+v, want one", w.Edges)
	}
	e := w.Edges[0]
	if e.Waiter != 1 || e.Holder != 0 || e.Lock != 7 || e.Wants != "R" || e.Holds != "W" || e.WaitNS != 42 {
		t.Fatalf("edge = %+v", e)
	}
	if w.Deadlocked() {
		t.Fatal("single edge reported as deadlock")
	}
}

func TestMergeSortsNodesAndLocks(t *testing.T) {
	c := introspect.Merge([]introspect.NodeInventory{
		{Node: 2, Locks: []introspect.LockInfo{{Lock: 9}, {Lock: 1}}},
		{Node: 0},
	})
	if len(c.Nodes) != 2 || c.Nodes[0].Node != 0 || c.Nodes[1].Node != 2 {
		t.Fatalf("nodes not sorted: %+v", c.Nodes)
	}
	if c.Nodes[1].Locks[0].Lock != 1 || c.Nodes[1].Locks[1].Lock != 9 {
		t.Fatalf("locks not sorted: %+v", c.Nodes[1].Locks)
	}
}

// TestQueueInfoPairsOwnWaiter checks the enqueue-stamp plumbing: the
// node's own queued request (matched by trace ID) carries the waiter's
// registration-stamped duration; remote requests carry none.
func TestQueueInfoPairsOwnWaiter(t *testing.T) {
	self := proto.NodeID(1)
	tr := proto.TraceID{Node: 1, Seq: 50}
	queue := []proto.Request{
		{Origin: 2, Mode: modes.W, TS: 10, Trace: proto.TraceID{Node: 2, Seq: 9}},
		{Origin: 1, Mode: modes.R, TS: 11, Trace: tr, Priority: 3},
	}
	waiter := &introspect.Waiter{Mode: "R", Trace: tr.String(), WaitNS: 777}
	qs := introspect.QueueInfo(queue, self, waiter)
	if len(qs) != 2 {
		t.Fatalf("queue = %+v", qs)
	}
	if qs[0].WaitNS != 0 {
		t.Errorf("remote request got a wait stamp: %+v", qs[0])
	}
	if qs[1].WaitNS != 777 {
		t.Errorf("own request missing wait stamp: %+v", qs[1])
	}
	if qs[1].Priority != 3 || qs[1].Trace != "n1.50" {
		t.Errorf("queue entry = %+v", qs[1])
	}
	// A stale waiter from a different trace (re-issued request) must not
	// attach to the wrong queue slot.
	qs = introspect.QueueInfo(queue, self, &introspect.Waiter{Mode: "R", Trace: "n1.99", WaitNS: 5})
	if qs[1].WaitNS != 0 {
		t.Errorf("mismatched trace still paired: %+v", qs[1])
	}
}

// richFixture exercises every rendered field for the format goldens.
func richFixture() introspect.NodeInventory {
	return introspect.NodeInventory{
		Node: 4,
		Locks: []introspect.LockInfo{
			{
				Lock: 11, Resource: "orders/eu", Epoch: 2, Token: true,
				Held: "U", Pending: "W", Parent: -1,
				Frozen:     []string{"R", "W"},
				StaleDrops: 3,
				Copyset: []introspect.CopysetEntry{
					{Node: 1, Mode: "IR"}, {Node: 2, Mode: "R"},
				},
				Queue: []introspect.QueuedRequest{
					{Origin: 2, Mode: "W", TS: 41, Trace: "n2.7"},
					{Origin: 4, Mode: "W", TS: 44, Priority: 9, Trace: "n4.12", WaitNS: 2500e6},
				},
				Waiter: &introspect.Waiter{Mode: "W", Trace: "n4.12", WaitNS: 2500e6, Upgrade: true},
			},
			{Lock: 12, Resource: "orders/us", Epoch: 0, Parent: 0, Held: "IR"},
		},
	}
}

func TestFormatNodeGolden(t *testing.T) {
	golden(t, "format_node.golden", []byte(introspect.FormatNode(richFixture())))
}

func TestFormatClusterGolden(t *testing.T) {
	c := introspect.Merge(cycleFixture())
	c.Errors = map[string]string{"10.0.0.9:7490": "connection refused"}
	golden(t, "format_cluster.golden", []byte(introspect.FormatCluster(c)))
}

func TestFormatTopGolden(t *testing.T) {
	nodes := cycleFixture()
	nodes = append(nodes, richFixture())
	c := introspect.Merge(nodes)
	golden(t, "format_top.golden", []byte(introspect.FormatTop(c, 3)))
}

func TestFormatWaitForRendersDeadlock(t *testing.T) {
	out := introspect.FormatWaitFor(introspect.Merge(cycleFixture()).WaitFor)
	want := "DEADLOCK: 0 -> 1 -> 2 -> 0\n"
	if !bytes.Contains([]byte(out), []byte(want)) {
		t.Fatalf("FormatWaitFor output missing %q:\n%s", want, out)
	}
}
