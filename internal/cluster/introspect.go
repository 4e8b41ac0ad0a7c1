package cluster

import "hierlock/internal/introspect"

// Inventory snapshots one simulated node's per-lock protocol state in
// the same shape the live runtime serves on /debug/locks, so tests and
// experiment harnesses can assert against the cluster-wide view (and
// its wait-for graph) without standing up TCP members. Wait durations
// are virtual-time, from the request's registration stamp.
func (n *Node) Inventory() introspect.NodeInventory {
	inv := introspect.NodeInventory{Node: int(n.ID)}
	now := n.c.Sim.Now()
	for lock, e := range n.hier {
		var waiter *introspect.Waiter
		if w, ok := n.waiters[lock]; ok {
			waiter = &introspect.Waiter{
				Mode:   introspect.ModeString(w.mode),
				WaitNS: (now - w.start).Nanoseconds(),
			}
		}
		inv.Locks = append(inv.Locks, introspect.EngineInfo(e, waiter))
	}
	inv.Sort()
	return inv
}

// Inventory merges every live node's inventory into the cluster view,
// wait-for graph and deadlock cycles included (crashed nodes' state is
// wiped and is skipped, exactly as an unreachable peer would be in a
// live `lockctl locks --cluster` merge).
func (c *Cluster) Inventory() introspect.Cluster {
	var nodes []introspect.NodeInventory
	for _, n := range c.Nodes {
		if c.NodeDown(n.ID) {
			continue
		}
		nodes = append(nodes, n.Inventory())
	}
	return introspect.Merge(nodes)
}
