// Package introspect is the cluster's lock-state observability surface:
// per-node lock inventories (who holds what, who is queued where, where
// the token is headed), their cluster-wide merge with a wait-for graph
// and distributed-deadlock flags, and incidents: what a node held when
// something went wrong, one directory per failure (see Recorder).
//
// The inventory answers the question the hierarchical model makes
// hardest operationally: a lock's state is spread over the token node
// (queue, copyset, frozen modes), the copyset members (held modes) and
// the probable-owner chain (everyone else's parent pointer). One node's
// /debug/locks dump shows its shard of that state; Merge assembles the
// shards into the cluster truth, and BuildWaitFor turns it into the
// waits-for relation whose cycles are distributed deadlocks (Naimi &
// Thiaré motivate exactly this reasoning for path-reversal protocols).
package introspect

import (
	"sort"

	"hierlock/internal/hlock"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// CopysetEntry is one child of a token node: a node holding a granted
// copy in some mode.
type CopysetEntry struct {
	Node int    `json:"node"`
	Mode string `json:"mode"`
}

// QueuedRequest is one request parked in a node's local queue, waiting
// for the lock to become compatible (the paper's Rule 4 queues).
type QueuedRequest struct {
	// Origin is the node that issued the request.
	Origin int `json:"origin"`
	// Mode is the requested mode.
	Mode string `json:"mode"`
	// TS is the request's Lamport timestamp (queue arbitration order).
	TS uint64 `json:"ts"`
	// Priority is the client-assigned priority class (0 = default FIFO).
	Priority uint8 `json:"priority,omitempty"`
	// Trace is the request's causal trace ID (feed it to lockctl trace).
	Trace string `json:"trace,omitempty"`
	// WaitNS is how long the request has been outstanding, when the
	// queueing node can know it (its own request, matched to the local
	// waiter slot's registration stamp). 0 for remote requests: their
	// enqueue wall time is not carried on the wire.
	WaitNS int64 `json:"wait_ns,omitempty"`
}

// Waiter is a node's own outstanding client request on a lock.
type Waiter struct {
	// Mode is the requested mode (W for upgrades).
	Mode string `json:"mode"`
	// Trace is the request's causal trace ID.
	Trace string `json:"trace,omitempty"`
	// WaitNS is the time since the waiter registered, from the enqueue
	// stamp taken once at registration (not derived at dump time).
	WaitNS int64 `json:"wait_ns"`
	// Upgrade marks a U→W upgrade rather than a fresh acquisition.
	Upgrade bool `json:"upgrade,omitempty"`
}

// LockInfo is one lock's protocol state at one node.
type LockInfo struct {
	Lock uint64 `json:"lock"`
	// Resource is the client-visible resource name, when this node has
	// seen it ("" for locks only remote messages have touched).
	Resource string `json:"resource,omitempty"`
	// Epoch is the lock's recovery epoch at this node (0 = initial world).
	Epoch uint32 `json:"epoch"`
	// Token reports whether this node holds the lock's token.
	Token bool `json:"token"`
	// Held is the mode this node currently holds ("" = none).
	Held string `json:"held,omitempty"`
	// Pending is this node's outstanding request mode ("" = none).
	Pending string `json:"pending,omitempty"`
	// Frozen lists the modes frozen at this node (Rule 6 starvation
	// control), strongest last.
	Frozen []string `json:"frozen,omitempty"`
	// Parent is the probable-owner next hop: where this node forwards
	// requests it cannot serve. -1 when this node is the token root.
	Parent int `json:"parent"`
	// Copyset lists the children holding granted copies (token node
	// only), sorted by node.
	Copyset []CopysetEntry `json:"copyset,omitempty"`
	// Queue is the node's local request queue, in queue order.
	Queue []QueuedRequest `json:"queue,omitempty"`
	// Waiter is this node's own outstanding client request, if any.
	Waiter *Waiter `json:"waiter,omitempty"`
	// StaleDrops counts epoch-fenced messages dropped on this lock.
	StaleDrops uint64 `json:"stale_drops,omitempty"`
}

// SessionLock is one lock held by a client session, as recorded by the
// lockd session tier.
type SessionLock struct {
	// Key is the session-scoped name: the resource for plain locks,
	// "path:<segments>" for path locks, "set:<resources>" for sets.
	Key string `json:"key"`
	// Mode is the granted mode ("" for sets).
	Mode string `json:"mode,omitempty"`
	// Fence is the grant's fencing token "<epoch>.<seq>" ("" when not
	// applicable).
	Fence string `json:"fence,omitempty"`
}

// SessionInfo is one named client session on a lockd: its lease state
// and the locks it holds.
type SessionInfo struct {
	Name string `json:"name"`
	// Attached reports a live client connection; a detached session's
	// lease keeps ticking until re-adoption or expiry.
	Attached bool `json:"attached,omitempty"`
	// TTLMillis is the lease TTL; ExpiresInMillis the remaining lease
	// at dump time (negative = expiry pending the next sweep).
	TTLMillis       int64         `json:"ttl_ms,omitempty"`
	ExpiresInMillis int64         `json:"expires_in_ms,omitempty"`
	Locks           []SessionLock `json:"locks,omitempty"`
}

// NodeInventory is one node's full lock inventory, the payload of
// /debug/locks.
type NodeInventory struct {
	Node  int        `json:"node"`
	Locks []LockInfo `json:"locks"`
	// Sessions lists the node's named client sessions (lockd only;
	// empty for raw members).
	Sessions []SessionInfo `json:"sessions,omitempty"`
}

// Sort orders the inventory by lock ID (resource name as tiebreaker for
// deterministic output; IDs are unique in practice).
func (inv *NodeInventory) Sort() {
	sort.Slice(inv.Locks, func(i, j int) bool {
		if inv.Locks[i].Lock != inv.Locks[j].Lock {
			return inv.Locks[i].Lock < inv.Locks[j].Lock
		}
		return inv.Locks[i].Resource < inv.Locks[j].Resource
	})
}

// Cluster is the merged cluster-wide view: every fetched node's
// inventory plus the wait-for graph derived from them. Errors maps
// unreachable peers to their fetch errors (a partial merge is still a
// useful report; cycle detection then only sees the fetched shard).
type Cluster struct {
	Nodes   []NodeInventory   `json:"nodes"`
	WaitFor WaitFor           `json:"wait_for"`
	Errors  map[string]string `json:"errors,omitempty"`
}

// Merge assembles per-node inventories into the cluster view: nodes
// sorted by ID, each inventory sorted by lock, and the wait-for graph
// built across them.
func Merge(nodes []NodeInventory) Cluster {
	out := Cluster{Nodes: append([]NodeInventory(nil), nodes...)}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	for i := range out.Nodes {
		out.Nodes[i].Sort()
	}
	out.WaitFor = BuildWaitFor(out.Nodes)
	return out
}

// modeString renders a mode for inventory JSON: "" for None (omitted),
// the paper's name otherwise.
func modeString(m modes.Mode) string {
	if m == modes.None {
		return ""
	}
	return m.String()
}

// ModeString is modeString for inventory builders outside this package
// (a waiter's mode in the member runtime).
func ModeString(m modes.Mode) string { return modeString(m) }

// EngineInfo builds one lock's LockInfo from its engine: epoch, token,
// held and pending modes, frozen set, probable-owner next hop (-1 for
// proto.NoNode: this node is the root), stale drops, the copyset sorted
// by node and the local queue: Member.Inventory's builder. waiter is
// the node's own outstanding client request, if any; the caller adds
// what only it knows (Resource).
func EngineInfo(e *hlock.Engine, waiter *Waiter) LockInfo {
	li := LockInfo{
		Lock:       uint64(e.Lock()),
		Epoch:      e.Epoch(),
		Token:      e.IsToken(),
		Held:       modeString(e.Held()),
		Pending:    modeString(e.Pending()),
		Parent:     int(e.Parent()),
		StaleDrops: e.StaleDrops(),
		Waiter:     waiter,
	}
	for _, m := range e.Frozen().Modes() {
		li.Frozen = append(li.Frozen, m.String())
	}
	for node, m := range e.Children() {
		li.Copyset = append(li.Copyset, CopysetEntry{Node: int(node), Mode: modeString(m)})
	}
	sort.Slice(li.Copyset, func(i, j int) bool { return li.Copyset[i].Node < li.Copyset[j].Node })
	li.Queue = QueueInfo(e.Queue(), e.Self(), waiter)
	return li
}

// QueueInfo converts an engine queue snapshot for inventory JSON. self
// and waiter, when the queueing node knows its own waiter slot, attach
// the registration-stamped wait duration to the node's own queued
// request (the trace IDs must match, so a re-issued request after a
// recovery reseed still pairs correctly).
func QueueInfo(queue []proto.Request, self proto.NodeID, waiter *Waiter) []QueuedRequest {
	if len(queue) == 0 {
		return nil
	}
	out := make([]QueuedRequest, len(queue))
	for i, r := range queue {
		q := QueuedRequest{
			Origin:   int(r.Origin),
			Mode:     modeString(r.Mode),
			TS:       uint64(r.TS),
			Priority: r.Priority,
		}
		if !r.Trace.IsZero() {
			q.Trace = r.Trace.String()
		}
		if waiter != nil && r.Origin == self && q.Trace == waiter.Trace {
			q.WaitNS = waiter.WaitNS
		}
		out[i] = q
	}
	return out
}
