package cluster

import (
	"fmt"
	"sort"

	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// This file is the simulator's runtime-membership surface, mirroring the
// live member's Join/Leave (membership.go at the repo root). The wire
// handshake is modelled at the control plane — a join is instantaneous
// adoption of a member's recovery outcomes, a leave is an instantaneous
// departure whose nominated tokens regenerate among the survivors — so
// seeded runs stay deterministic while exercising the same recovery
// machinery the live runtime drives through KindJoin/KindLeave frames.
// Both must be called on the simulator goroutine, like all Cluster
// access.

// Join admits a new node into the running cluster. The joiner is minted
// like an original node (same protocol, lazy engines), then seeded the
// way a live JoinAck seeds it: it adopts every completed-round outcome
// the lowest-ID live member remembers and raises its epoch floor to the
// highest epoch that member has observed, so nothing the joiner later
// regenerates can collide with a world it never saw. Every member's
// recovery manager learns the joiner, and the majority quorum is
// recomputed over the grown membership. No token moves: a join is a
// recovery round with zero lost tokens.
//
// Only the Hierarchical protocol, the one that runs recovery, accepts
// runtime membership changes, and the cluster must have been built with
// Config.Recovery.
func (c *Cluster) Join() (*Node, error) {
	if c.recovery == nil {
		return nil, fmt.Errorf("cluster: join requires the recovery subsystem (Config.Recovery)")
	}
	id := proto.NodeID(len(c.Nodes))
	cfg := c.cfg
	cfg.Nodes = len(c.Nodes) + 1
	c.members[id] = true
	n := newNode(c, id, cfg)
	c.Nodes = append(c.Nodes, n)
	c.Net.Register(n.ID, n.handle)

	// Every live member admits the joiner into its node set (the live
	// runtime fans the announcement out through the mesh).
	for _, o := range c.Nodes[:len(c.Nodes)-1] {
		if o.mgr != nil && c.members[o.ID] {
			o.mgr.AddNode(id)
		}
	}

	// Seed the joiner from the lowest-ID live member, the node a live
	// joiner would have been pointed at: its completed-round table plus
	// the highest epoch its engines carry beyond it.
	var floor uint32
	if seed := c.lowestLiveMember(id); seed != nil && seed.mgr != nil && n.mgr != nil {
		for lock, s := range seed.mgr.Table() {
			n.mgr.Adopt(lock, s)
			if s.Epoch > floor {
				floor = s.Epoch
			}
		}
		if e := seed.maxEpoch(); e > floor {
			floor = e
		}
		n.mgr.SetEpochFloor(floor)
	}
	c.recomputeQuorum()
	c.trace.Record(trace.Entry{
		At: c.Sim.Now(), Op: trace.OpJoin, Node: id, Epoch: floor,
	})
	return n, nil
}

// Leave departs a node gracefully: it must hold no client locks and
// have no request outstanding (the live member refuses a Leave with
// held locks the same way). Every token its state can account for —
// live engine tokens, implicit initial-topology tokens, seed-table
// roots — is nominated to the survivors, who regenerate each one with
// the leaver already excluded, so the new world cannot re-reference it.
// The departed node drops every frame still in flight to it, exactly
// like the process that shut down after the hand-off.
func (c *Cluster) Leave(id proto.NodeID) error {
	if c.recovery == nil {
		return fmt.Errorf("cluster: leave requires the recovery subsystem (Config.Recovery)")
	}
	if int(id) >= len(c.Nodes) || !c.members[id] {
		return fmt.Errorf("cluster: node %d is not a member", id)
	}
	if c.NodeDown(id) {
		return fmt.Errorf("cluster: node %d is crashed; use crash recovery, not leave", id)
	}
	n := c.Nodes[id]
	for lock, holders := range c.oracle {
		if _, held := holders[id]; held {
			return fmt.Errorf("cluster: node %d still holds lock %d; release before leaving", id, lock)
		}
	}
	if len(n.waiters) > 0 {
		return fmt.Errorf("cluster: node %d has requests outstanding; leave refused", id)
	}

	// Nominate every lock whose token this node's state accounts for.
	// recoveryState answers through the same lazy-engine path a recovery
	// claim would, so implicit holds (the initial-topology root, a
	// recovered seed root with an evicted engine) are included.
	var nominated []proto.LockID
	for _, lock := range n.recoveryLocks() {
		if n.recoveryState(lock).Token {
			nominated = append(nominated, lock)
		}
	}
	sort.Slice(nominated, func(i, j int) bool { return nominated[i] < nominated[j] })

	delete(c.members, id)
	n.left = true
	c.Net.Register(id, nil)

	// Survivors process the departure in ID order: remove the leaver
	// from their node sets and regenerate every nominated (or
	// leaver-referencing) lock among themselves.
	for _, o := range c.Nodes {
		if o.mgr != nil && c.members[o.ID] && !c.NodeDown(o.ID) {
			o.mgr.Depart(id, nominated)
		}
	}
	c.recomputeQuorum()
	c.trace.Record(trace.Entry{
		At: c.Sim.Now(), Op: trace.OpLeave, Node: id, Epoch: uint32(len(nominated)),
	})
	return nil
}

// Members returns the current membership, sorted ascending.
func (c *Cluster) Members() []proto.NodeID {
	out := make([]proto.NodeID, 0, len(c.members))
	for id := range c.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lowestLiveMember returns the lowest-ID member that is up and not the
// excluded node, or nil.
func (c *Cluster) lowestLiveMember(exclude proto.NodeID) *Node {
	for _, n := range c.Nodes {
		if n.ID != exclude && c.members[n.ID] && !c.NodeDown(n.ID) {
			return n
		}
	}
	return nil
}

// recomputeQuorum re-derives the majority quorum over the current
// membership and installs it on every member's manager.
func (c *Cluster) recomputeQuorum() {
	q := len(c.members)/2 + 1
	for _, n := range c.Nodes {
		if n.mgr != nil && c.members[n.ID] {
			n.mgr.SetQuorum(q)
		}
	}
}
