package introspect

import (
	"slices"
	"sort"
	"strconv"

	"hierlock/internal/modes"
)

// WaitEdge is one arc of the cluster-wide wait-for graph: Waiter has an
// outstanding request on Lock that conflicts with the mode Holder
// currently holds, so Waiter cannot proceed until Holder releases.
type WaitEdge struct {
	Waiter int    `json:"waiter"`
	Holder int    `json:"holder"`
	Lock   uint64 `json:"lock"`
	// Resource is the lock's name when any fetched inventory knows it.
	Resource string `json:"resource,omitempty"`
	// Wants and Holds are the conflicting modes.
	Wants string `json:"wants"`
	Holds string `json:"holds"`
	// WaitNS is the waiter's outstanding time, when its node stamped it.
	WaitNS int64 `json:"wait_ns,omitempty"`
}

// WaitFor is the cluster-wide waits-for relation and its cycles. A
// non-empty Cycles is a distributed deadlock: every node on the cycle
// waits (transitively) on itself, and no protocol message will ever
// break it — exactly what unordered multi-resource acquisition produces
// and ordered acquisition provably cannot.
type WaitFor struct {
	Edges []WaitEdge `json:"edges,omitempty"`
	// Cycles lists each deadlock cycle once as its node sequence,
	// rotated so the smallest node leads.
	Cycles [][]int `json:"cycles,omitempty"`
}

// Deadlocked reports whether the graph contains any cycle.
func (w WaitFor) Deadlocked() bool { return len(w.Cycles) > 0 }

// BuildWaitFor derives the waits-for relation from merged inventories:
// for every node with an outstanding request on a lock (a local waiter,
// or an engine-level pending mode), an edge points at every other node
// whose held mode on that lock conflicts with the requested mode. The
// relation is conservative in the same way the paper's queues are: a
// waiter behind a compatible holder (no edge) is waiting on the token's
// travel, not on a release.
func BuildWaitFor(nodes []NodeInventory) WaitFor {
	type holderInfo struct {
		node int
		mode modes.Mode
	}
	holders := make(map[uint64][]holderInfo)
	resources := make(map[uint64]string)
	for _, n := range nodes {
		for _, l := range n.Locks {
			if l.Resource != "" {
				resources[l.Lock] = l.Resource
			}
			if m := parseMode(l.Held); m != modes.None {
				holders[l.Lock] = append(holders[l.Lock], holderInfo{n.Node, m})
			}
		}
	}

	var w WaitFor
	adj := make(map[int]map[int]bool)
	for _, n := range nodes {
		for _, l := range n.Locks {
			want := parseMode(l.Pending)
			var waitNS int64
			if l.Waiter != nil {
				waitNS = l.Waiter.WaitNS
				if want == modes.None {
					want = parseMode(l.Waiter.Mode)
				}
			}
			if want == modes.None {
				continue
			}
			for _, h := range holders[l.Lock] {
				if h.node == n.Node || modes.Compatible(want, h.mode) {
					continue
				}
				w.Edges = append(w.Edges, WaitEdge{
					Waiter:   n.Node,
					Holder:   h.node,
					Lock:     l.Lock,
					Resource: resources[l.Lock],
					Wants:    want.String(),
					Holds:    h.mode.String(),
					WaitNS:   waitNS,
				})
				if adj[n.Node] == nil {
					adj[n.Node] = make(map[int]bool)
				}
				adj[n.Node][h.node] = true
			}
		}
	}
	sort.Slice(w.Edges, func(i, j int) bool {
		a, b := w.Edges[i], w.Edges[j]
		if a.Waiter != b.Waiter {
			return a.Waiter < b.Waiter
		}
		if a.Holder != b.Holder {
			return a.Holder < b.Holder
		}
		return a.Lock < b.Lock
	})
	w.Cycles = findCycles(adj)
	return w
}

// Confirm keeps the cycles of first that second shows too. Each member
// reads its locks one stripe at a time, so a view merged while locks move
// can join edges that never coexisted into a cycle; a real deadlock
// persists, so a cycle a later view repeats is one. Edges stay first's.
func Confirm(first, second WaitFor) WaitFor {
	var kept [][]int
	for _, c := range first.Cycles {
		if slices.ContainsFunc(second.Cycles, func(d []int) bool { return slices.Equal(c, d) }) {
			kept = append(kept, c)
		}
	}
	first.Cycles = kept
	return first
}

// parseMode is modes.Parse tolerant of the inventory's "" encoding.
func parseMode(s string) modes.Mode {
	m, err := modes.Parse(s)
	if err != nil {
		return modes.None
	}
	return m
}

// findCycles enumerates the distinct simple cycles of the waits-for
// adjacency by DFS, canonicalizing each (rotated so the smallest node
// leads) so a cycle discovered from several entry points reports once.
func findCycles(adj map[int]map[int]bool) [][]int {
	starts := make([]int, 0, len(adj))
	for n := range adj {
		starts = append(starts, n)
	}
	sort.Ints(starts)

	var (
		cycles [][]int
		seen   = make(map[string]bool)
		path   []int
		onPath = make(map[int]int) // node → index in path
	)
	var dfs func(n int)
	dfs = func(n int) {
		onPath[n] = len(path)
		path = append(path, n)
		next := make([]int, 0, len(adj[n]))
		for t := range adj[n] {
			next = append(next, t)
		}
		sort.Ints(next)
		for _, t := range next {
			if at, ok := onPath[t]; ok {
				cycles = appendCycle(cycles, seen, path[at:])
				continue
			}
			dfs(t)
		}
		path = path[:len(path)-1]
		delete(onPath, n)
	}
	for _, n := range starts {
		dfs(n)
	}
	return cycles
}

// appendCycle canonicalizes and deduplicates one discovered cycle.
func appendCycle(cycles [][]int, seen map[string]bool, cyc []int) [][]int {
	min := 0
	for i, n := range cyc {
		if n < cyc[min] {
			min = i
		}
	}
	canon := make([]int, 0, len(cyc))
	canon = append(canon, cyc[min:]...)
	canon = append(canon, cyc[:min]...)
	key := ""
	for _, n := range canon {
		key += "," + strconv.Itoa(n)
	}
	if seen[key] {
		return cycles
	}
	seen[key] = true
	return append(cycles, canon)
}
