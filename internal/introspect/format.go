package introspect

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// lockName labels a lock for humans: the resource name when known,
// with the numeric ID alongside.
func lockName(lock uint64, resource string) string {
	if resource != "" {
		return fmt.Sprintf("%s (%d)", resource, lock)
	}
	return fmt.Sprintf("lock %d", lock)
}

func waitString(ns int64) string {
	if ns <= 0 {
		return ""
	}
	return " waiting " + time.Duration(ns).Truncate(time.Millisecond).String()
}

// FormatNode renders one node's inventory as the single-node `lockctl
// locks` report.
func FormatNode(inv NodeInventory) string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d: %d tracked locks\n", inv.Node, len(inv.Locks))
	for _, l := range inv.Locks {
		fmt.Fprintf(&b, "  %s epoch %d", lockName(l.Lock, l.Resource), l.Epoch)
		if l.Token {
			b.WriteString(" TOKEN")
		} else {
			fmt.Fprintf(&b, " parent→%d", l.Parent)
		}
		if l.Held != "" {
			fmt.Fprintf(&b, " held=%s", l.Held)
		}
		if l.Pending != "" {
			fmt.Fprintf(&b, " pending=%s", l.Pending)
		}
		if len(l.Frozen) > 0 {
			fmt.Fprintf(&b, " frozen={%s}", strings.Join(l.Frozen, ","))
		}
		if l.StaleDrops > 0 {
			fmt.Fprintf(&b, " stale_drops=%d", l.StaleDrops)
		}
		b.WriteByte('\n')
		if len(l.Copyset) > 0 {
			parts := make([]string, len(l.Copyset))
			for i, c := range l.Copyset {
				parts[i] = fmt.Sprintf("%d:%s", c.Node, c.Mode)
			}
			fmt.Fprintf(&b, "    copyset: %s\n", strings.Join(parts, " "))
		}
		for i, q := range l.Queue {
			fmt.Fprintf(&b, "    queue[%d]: node %d wants %s ts=%d", i, q.Origin, q.Mode, q.TS)
			if q.Priority > 0 {
				fmt.Fprintf(&b, " pri=%d", q.Priority)
			}
			if q.Trace != "" {
				fmt.Fprintf(&b, " trace=%s", q.Trace)
			}
			b.WriteString(waitString(q.WaitNS))
			b.WriteByte('\n')
		}
		if w := l.Waiter; w != nil {
			verb := "wants"
			if w.Upgrade {
				verb = "upgrading to"
			}
			fmt.Fprintf(&b, "    waiter: %s %s", verb, w.Mode)
			if w.Trace != "" {
				fmt.Fprintf(&b, " trace=%s", w.Trace)
			}
			b.WriteString(waitString(w.WaitNS))
			b.WriteByte('\n')
		}
	}
	b.WriteString(FormatSessions(inv.Sessions))
	return b.String()
}

// FormatSessions renders a node's named client sessions ("" when there
// are none, keeping session-free reports unchanged).
func FormatSessions(sessions []SessionInfo) string {
	if len(sessions) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d sessions\n", len(sessions))
	for _, s := range sessions {
		state := "detached"
		if s.Attached {
			state = "attached"
		}
		fmt.Fprintf(&b, "  session %s %s ttl=%s expires_in=%s locks=%d\n",
			s.Name, state,
			time.Duration(s.TTLMillis)*time.Millisecond,
			time.Duration(s.ExpiresInMillis)*time.Millisecond,
			len(s.Locks))
		for _, l := range s.Locks {
			fmt.Fprintf(&b, "    %s", l.Key)
			if l.Mode != "" {
				fmt.Fprintf(&b, "=%s", l.Mode)
			}
			if l.Fence != "" {
				fmt.Fprintf(&b, "@%s", l.Fence)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// lockRow is the cluster view of one lock, assembled across nodes.
type lockRow struct {
	lock     uint64
	resource string
	epoch    uint32
	token    int // node holding the token, -1 if unseen
	holders  []string
	queued   int
	waiters  []string
	maxWait  int64
}

func clusterRows(c Cluster) []lockRow {
	rows := make(map[uint64]*lockRow)
	for _, n := range c.Nodes {
		for _, l := range n.Locks {
			r := rows[l.Lock]
			if r == nil {
				r = &lockRow{lock: l.Lock, token: -1}
				rows[l.Lock] = r
			}
			if l.Resource != "" {
				r.resource = l.Resource
			}
			if l.Epoch > r.epoch {
				r.epoch = l.Epoch
			}
			if l.Token {
				r.token = n.Node
			}
			if l.Held != "" {
				r.holders = append(r.holders, fmt.Sprintf("%d:%s", n.Node, l.Held))
			}
			r.queued += len(l.Queue)
			if w := l.Waiter; w != nil {
				r.waiters = append(r.waiters, fmt.Sprintf("%d:%s", n.Node, w.Mode))
				if w.WaitNS > r.maxWait {
					r.maxWait = w.WaitNS
				}
			} else if l.Pending != "" {
				r.waiters = append(r.waiters, fmt.Sprintf("%d:%s", n.Node, l.Pending))
			}
		}
	}
	out := make([]lockRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lock < out[j].lock })
	return out
}

// FormatCluster renders the merged cluster view: one block per lock,
// then the wait-for graph with any deadlock cycles flagged.
func FormatCluster(c Cluster) string {
	var b strings.Builder
	rows := clusterRows(c)
	fmt.Fprintf(&b, "%d nodes, %d locks\n", len(c.Nodes), len(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s epoch %d", lockName(r.lock, r.resource), r.epoch)
		if r.token >= 0 {
			fmt.Fprintf(&b, " token@%d", r.token)
		} else {
			b.WriteString(" token unseen")
		}
		if len(r.holders) > 0 {
			fmt.Fprintf(&b, " held %s", strings.Join(r.holders, " "))
		}
		if len(r.waiters) > 0 {
			fmt.Fprintf(&b, " waiting %s", strings.Join(r.waiters, " "))
		}
		if r.queued > 0 {
			fmt.Fprintf(&b, " queued %d", r.queued)
		}
		b.WriteByte('\n')
	}
	b.WriteString(FormatWaitFor(c.WaitFor))
	if len(c.Errors) > 0 {
		peers := make([]string, 0, len(c.Errors))
		for p := range c.Errors {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		for _, p := range peers {
			fmt.Fprintf(&b, "warning: %s unreachable: %s (partial view)\n", p, c.Errors[p])
		}
	}
	return b.String()
}

// FormatWaitFor renders the waits-for relation and its verdict.
func FormatWaitFor(w WaitFor) string {
	var b strings.Builder
	if len(w.Edges) == 0 {
		b.WriteString("wait-for graph: empty\n")
		return b.String()
	}
	fmt.Fprintf(&b, "wait-for graph: %d edges\n", len(w.Edges))
	for _, e := range w.Edges {
		fmt.Fprintf(&b, "  node %d (wants %s) -> node %d (holds %s) on %s%s\n",
			e.Waiter, e.Wants, e.Holder, e.Holds, lockName(e.Lock, e.Resource), waitString(e.WaitNS))
	}
	if len(w.Cycles) == 0 {
		b.WriteString("no deadlock cycles\n")
		return b.String()
	}
	for _, cyc := range w.Cycles {
		parts := make([]string, 0, len(cyc)+1)
		for _, n := range cyc {
			parts = append(parts, fmt.Sprintf("%d", n))
		}
		parts = append(parts, fmt.Sprintf("%d", cyc[0]))
		fmt.Fprintf(&b, "DEADLOCK: %s\n", strings.Join(parts, " -> "))
	}
	return b.String()
}

// FormatTop renders the cluster view as a contention leaderboard:
// locks sorted by (waiters+queued, max wait) descending, the `lockctl
// top` output. n > 0 limits the rows.
func FormatTop(c Cluster, n int) string {
	rows := clusterRows(c)
	sort.Slice(rows, func(i, j int) bool {
		ci := len(rows[i].waiters) + rows[i].queued
		cj := len(rows[j].waiters) + rows[j].queued
		if ci != cj {
			return ci > cj
		}
		if rows[i].maxWait != rows[j].maxWait {
			return rows[i].maxWait > rows[j].maxWait
		}
		return rows[i].lock < rows[j].lock
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %6s %-16s %7s %7s %10s\n",
		"RESOURCE", "LOCK", "TOKEN", "HOLDERS", "QUEUED", "WAITERS", "MAX-WAIT")
	for _, r := range rows {
		res := r.resource
		if res == "" {
			res = "-"
		}
		token := "-"
		if r.token >= 0 {
			token = fmt.Sprintf("%d", r.token)
		}
		holders := strings.Join(r.holders, ",")
		if holders == "" {
			holders = "-"
		}
		maxWait := "-"
		if r.maxWait > 0 {
			maxWait = time.Duration(r.maxWait).Truncate(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-28s %6d %6s %-16s %7d %7d %10s\n",
			res, r.lock, token, holders, r.queued, len(r.waiters), maxWait)
	}
	if w := c.WaitFor; w.Deadlocked() {
		fmt.Fprintf(&b, "%d deadlock cycle(s) — run `lockctl locks --cluster` for the wait-for graph\n", len(w.Cycles))
	}
	return b.String()
}
