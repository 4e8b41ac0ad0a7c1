// Package proto defines the wire-level vocabulary of the hierarchical
// locking protocol: node and lock identifiers, Lamport timestamps, the five
// protocol message kinds (request, grant, token, release, freeze), causal
// trace identifiers, and a compact deterministic binary codec used by the
// TCP transport.
//
// The package is shared by the protocol engines (internal/hlock,
// internal/naimi), the simulator, and the live transports. It contains no
// protocol logic.
package proto

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"hierlock/internal/modes"
)

// NodeID identifies a participant. IDs are small dense integers assigned
// by the cluster configuration; they double as slice indices in the
// simulator.
type NodeID int32

// NoNode is the absent node (e.g. the parent of the token node).
const NoNode NodeID = -1

// LockID identifies one lock (one protocol instance). The cluster layer
// maps resource names to LockIDs.
type LockID uint64

// Timestamp is a Lamport logical timestamp used to merge request queues
// while preserving FIFO ordering (paper §3, footnote c, via [11]).
type Timestamp uint64

// Clock is a Lamport logical clock. The zero value is ready to use.
// Clock is safe for concurrent use: one node's engines may tick it from
// several goroutines (the member runtime serializes per lock, not per
// node, so engines of distinct locks advance the shared clock
// concurrently).
type Clock struct {
	now atomic.Uint64
}

// Tick advances the clock for a local event and returns the new time.
func (c *Clock) Tick() Timestamp {
	return Timestamp(c.now.Add(1))
}

// Witness merges an observed remote timestamp into the clock.
func (c *Clock) Witness(t Timestamp) {
	for {
		cur := c.now.Load()
		next := cur + 1
		if uint64(t) > cur {
			next = uint64(t) + 1
		}
		if c.now.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Now returns the current clock value without advancing it.
func (c *Clock) Now() Timestamp { return Timestamp(c.now.Load()) }

// Clone returns an independent clock at the same time. Clock contains an
// atomic and must not be copied by value; model checkers fork clocks
// with Clone when cloning explored states.
func (c *Clock) Clone() *Clock {
	n := &Clock{}
	n.now.Store(c.now.Load())
	return n
}

// Kind discriminates protocol messages.
type Kind uint8

// The protocol message kinds. The first five are exactly the message
// types whose counts the paper breaks down in Figure 7; the next four
// (wire version 3) belong to the crash-recovery subsystem and the
// transport failure detector; the last four (wire version 4) implement
// runtime membership change. All kinds past freeze are handled outside
// the protocol engines.
const (
	KindInvalid Kind = iota
	KindRequest      // lock request propagating toward a granter
	KindGrant        // copy grant from a (token or non-token) granter
	KindToken        // token transfer, carrying the merged request queue
	KindRelease      // owned-mode weakening notification to the parent
	KindFreeze       // frozen-mode set push from the token toward granters

	KindProbe     // recovery: regenerator asks a survivor for its lock state
	KindClaim     // recovery: survivor reports (epoch, held mode, token bit)
	KindRecovered // recovery: regenerator announces the new epoch and root
	KindHeartbeat // transport liveness beacon; filtered before the mailbox

	KindJoin     // membership: joiner announces itself, carrying its address
	KindJoinAck  // membership: member answers with the peer list, max epoch and seeds
	KindLeave    // membership: graceful departure, nominating token-held locks
	KindLeaveAck // membership: survivor acknowledges processing a departure
)

// String returns the figure-7 label for the message kind (and stable
// labels for the recovery/liveness kinds).
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindGrant:
		return "grant"
	case KindToken:
		return "token"
	case KindRelease:
		return "release"
	case KindFreeze:
		return "freeze"
	case KindProbe:
		return "probe"
	case KindClaim:
		return "claim"
	case KindRecovered:
		return "recovered"
	case KindHeartbeat:
		return "heartbeat"
	case KindJoin:
		return "join"
	case KindJoinAck:
		return "join_ack"
	case KindLeave:
		return "leave"
	case KindLeaveAck:
		return "leave_ack"
	default:
		return "invalid"
	}
}

// TraceID identifies one client operation (an acquire, upgrade or
// release) for causal tracing across nodes. It is minted once at the
// origin node and never changes as the operation's messages are
// forwarded, queued, frozen, or served, so merging the per-node trace
// buffers by TraceID reconstructs the operation's full cross-node path.
//
// Seq is drawn from the origin node's Lamport clock, which makes IDs
// unique per node and deterministic under the seeded simulator. The zero
// TraceID means "untraced" (e.g. a frame from a version-1 peer).
type TraceID struct {
	Node NodeID
	Seq  uint64
}

// IsZero reports whether t is the absent trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as "n<node>.<seq>", or "-" for the zero ID.
// ParseTraceID inverts it.
func (t TraceID) String() string {
	if t.IsZero() {
		return "-"
	}
	return fmt.Sprintf("n%d.%d", t.Node, t.Seq)
}

// ParseTraceID parses the String form ("n3.17", or "-" for the zero ID).
func ParseTraceID(s string) (TraceID, error) {
	if s == "-" || s == "" {
		return TraceID{}, nil
	}
	rest, ok := strings.CutPrefix(s, "n")
	if !ok {
		return TraceID{}, fmt.Errorf("proto: malformed trace id %q", s)
	}
	node, seq, ok := strings.Cut(rest, ".")
	if !ok {
		return TraceID{}, fmt.Errorf("proto: malformed trace id %q", s)
	}
	n, err := strconv.ParseInt(node, 10, 32)
	if err != nil {
		return TraceID{}, fmt.Errorf("proto: malformed trace id %q: %v", s, err)
	}
	q, err := strconv.ParseUint(seq, 10, 64)
	if err != nil {
		return TraceID{}, fmt.Errorf("proto: malformed trace id %q: %v", s, err)
	}
	return TraceID{Node: NodeID(n), Seq: q}, nil
}

// MsgTrace extracts a message's causal trace ID: requests carry it in
// the embedded Request (authoritative even when a forwarding hop lost
// the header copy), everything else in the header. Recovered frames
// carry the regenerated root in Req.Origin instead; surfacing it as the
// trace node lets the auditor open the new epoch's token ledger at the
// right node.
func MsgTrace(msg *Message) TraceID {
	if msg.Kind == KindRequest && !msg.Req.Trace.IsZero() {
		return msg.Req.Trace
	}
	if msg.Kind == KindRecovered {
		return TraceID{Node: msg.Req.Origin}
	}
	return msg.Trace
}

// Request is a pending lock request as it travels through the tree and
// sits in local queues. Origin, TS, Priority and Trace never change as
// the request is forwarded.
type Request struct {
	Origin NodeID
	Mode   modes.Mode
	TS     Timestamp
	// Trace is the causal identity of the client operation that issued
	// this request. It rides with the request through forwards, queue
	// merges and token transfers so the eventual grant can be attributed
	// to the original acquire.
	Trace TraceID
	// Priority arbitrates queue order at the token node: higher values
	// are served first; equal priorities are FIFO by arrival. Zero is the
	// default (pure FIFO, the paper's base protocol); nonzero values
	// implement the strict priority ordering of Mueller's prioritized
	// token protocols that the paper builds on.
	Priority uint8
}

// Less orders requests by priority (higher first), then Lamport time,
// then origin. Queues use arrival order within a priority level; Less is
// the tie-breaking total order for deterministic merges in tests.
func (r Request) Less(o Request) bool {
	if r.Priority != o.Priority {
		return r.Priority > o.Priority
	}
	if r.TS != o.TS {
		return r.TS < o.TS
	}
	return r.Origin < o.Origin
}

// Message is one protocol message. A single struct (rather than an
// interface per kind) keeps the simulator allocation-free on the hot path
// and the codec trivial; unused fields are zero.
//
// Field order is layout-conscious, wide fields first and the sub-word
// scalars (Epoch, From, To, Kind, Mode, Owned, Frozen) packed together
// at the tail: this keeps the struct at 160 bytes — one malloc size
// class below the 176 a naive ordering costs — which matters because
// the simulator allocates one Message per delivery and the live path
// copies them per hop. The codec writes fields explicitly, so the
// declaration order has no wire significance.
type Message struct {
	Lock LockID
	TS   Timestamp // sender's Lamport time at send

	// KindRequest: the request being routed (Req.Origin may differ from
	// From when the request has been forwarded).
	Req Request

	// Seq is a per-(granter, grantee) sequence number: on KindGrant it
	// numbers the grant; on KindRelease it acknowledges the highest grant
	// sequence the releasing child has received from the addressee. It
	// lets a parent detect a release that crossed an in-flight grant and
	// fold the granted mode back into the child's recorded owned mode
	// (see internal/hlock). The Suzuki–Kasami baseline reuses it as the
	// request sequence number.
	Seq uint64

	// Queue is the old token's outstanding queue on KindToken (see the
	// Mode/Owned/Frozen comment below for the rest of the transfer
	// payload).
	Queue []Request

	// Vec is an optional per-node counter vector, used by the
	// Suzuki–Kasami baseline to ship the token's LN array. Empty for the
	// hierarchical protocol.
	Vec []uint64

	// Addr is a transport endpoint address (wire version 4), used only
	// by the membership kinds: on KindJoin it is the joiner's advertised
	// listen address; on KindJoinAck it is the responder's full member
	// list rendered in lockd's "id=host:port,..." peer syntax. Empty for
	// every other kind and for frames from pre-membership (v1–v3) peers.
	Addr string

	// Trace is the causal context of this message: for KindRequest it
	// equals Req.Trace; for KindGrant/KindToken it is the trace of the
	// request being served by the grant or transfer; for KindRelease and
	// KindFreeze it is the trace of the operation that triggered the
	// release or freeze push. Zero when the sender predates tracing
	// (wire version 1) or the operation was untraced.
	Trace TraceID

	// Epoch is the per-lock recovery epoch (wire version 3). Every token
	// regeneration round after a node crash bumps it; engines stamp it on
	// all protocol messages and fence (drop) frames whose epoch does not
	// match their own, which is what invalidates stale pre-crash tokens
	// and in-flight requests. Zero for locks that have never been through
	// recovery and for frames from pre-epoch (v1/v2) peers.
	Epoch uint32

	From NodeID
	To   NodeID
	Kind Kind

	// KindGrant: Mode is the granted mode; Frozen is the granter's frozen
	// set, inherited by the new child.
	// KindToken: Mode is the mode being granted by transfer; Owned is the
	// old token node's remaining owned mode (None if it keeps nothing, in
	// which case it does not join the new token's copyset); Queue is the
	// old token's outstanding queue; Frozen is carried for inheritance.
	// KindRelease: Owned is the child's new (weakened) owned mode.
	// KindFreeze: Frozen is the full replacement frozen set.
	Mode   modes.Mode
	Owned  modes.Mode
	Frozen modes.Set
}

// ExclOut is what one step of an exclusive-only baseline engine
// (internal/naimi, raymond, suzuki, ricart) produces: messages to
// transmit and whether the step completed this node's acquisition.
type ExclOut struct {
	Msgs     []Message
	Acquired bool
}
