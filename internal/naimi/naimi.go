// Package naimi implements the Naimi–Trehel–Arnold token-based distributed
// mutual-exclusion algorithm with path reversal (JPDC 34(1), 1996), the
// comparison baseline of the paper's evaluation. It provides a single
// exclusive lock per engine; hierarchical workloads map onto it by
// acquiring one lock per granule ("same work") or one global lock
// ("pure"), as in the paper's §4.
//
// The algorithm maintains two structures: a dynamic logical tree of
// probable-owner pointers (father), collapsed by path reversal on every
// request, and a distributed FIFO queue threaded through next pointers.
// The root holds the token; a request travels father links to the root,
// which either hands the token over (if idle) or appends the requester to
// the distributed queue.
//
// Like internal/hlock, the engine is a pure state machine: callers
// serialize calls per engine and deliver messages FIFO per ordered node
// pair.
package naimi

import (
	"errors"
	"fmt"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Client-operation errors.
var (
	ErrHeld     = errors.New("naimi: lock already held")
	ErrNotHeld  = errors.New("naimi: lock not held")
	ErrPending  = errors.New("naimi: request already pending")
	ErrProtocol = errors.New("naimi: protocol violation")
)

// Engine is the per-node, per-lock Naimi–Trehel state machine.
type Engine struct {
	self  proto.NodeID
	lock  proto.LockID
	clock *proto.Clock

	// father is the probable owner (NoNode when this node believes it is,
	// or is about to become, the root).
	father proto.NodeID
	// next is the successor in the distributed waiting queue.
	next proto.NodeID

	token      bool
	held       bool
	requesting bool
}

// New constructs the engine. Exactly one node has the token initially;
// all other nodes' father chains must reach it.
func New(self proto.NodeID, lock proto.LockID, father proto.NodeID, hasToken bool, clock *proto.Clock) *Engine {
	e := &Engine{
		self:   self,
		lock:   lock,
		clock:  clock,
		father: father,
		token:  hasToken,
		next:   proto.NoNode,
	}
	if hasToken {
		e.father = proto.NoNode
	}
	return e
}

// Self returns the node this engine runs on.
func (e *Engine) Self() proto.NodeID { return e.self }

// Lock returns the lock identifier.
func (e *Engine) Lock() proto.LockID { return e.lock }

// HasToken reports whether this node currently holds the token.
func (e *Engine) HasToken() bool { return e.token }

// Held reports whether the node is inside its critical section.
func (e *Engine) Held() bool { return e.held }

// Requesting reports whether an acquisition is outstanding.
func (e *Engine) Requesting() bool { return e.requesting }

// Father returns the probable-owner pointer (NoNode at the root).
func (e *Engine) Father() proto.NodeID { return e.father }

// Next returns the distributed-queue successor (NoNode if none).
func (e *Engine) Next() proto.NodeID { return e.next }

// String summarizes the engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("naimi node %d lock %d: token=%v held=%v req=%v father=%d next=%d",
		e.self, e.lock, e.token, e.held, e.requesting, e.father, e.next)
}

// Event is a local event: the single kind is acquisition.
type Event struct{}

// Out is the step output every exclusive-only baseline shares.
type Out = proto.ExclOut

// Acquire requests the critical section. If this node already holds the
// idle token, entry is immediate and message-free.
func (e *Engine) Acquire() (Out, error) {
	var out Out
	if e.held {
		return out, ErrHeld
	}
	if e.requesting {
		return out, ErrPending
	}
	if e.token {
		e.held = true
		out.Acquired = true
		return out, nil
	}
	e.requesting = true
	req := proto.Request{Origin: e.self, TS: e.clock.Tick()}
	out.Msgs = append(out.Msgs, proto.Message{
		Kind: proto.KindRequest, Lock: e.lock,
		From: e.self, To: e.father, TS: e.clock.Tick(), Req: req,
	})
	// The requester detaches: it will be the new root once served.
	e.father = proto.NoNode
	return out, nil
}

// Release leaves the critical section, forwarding the token to the queued
// successor if any.
func (e *Engine) Release() (Out, error) {
	var out Out
	if !e.held {
		return out, ErrNotHeld
	}
	e.held = false
	if e.next != proto.NoNode {
		e.token = false
		out.Msgs = append(out.Msgs, proto.Message{
			Kind: proto.KindToken, Lock: e.lock,
			From: e.self, To: e.next, TS: e.clock.Tick(),
		})
		e.next = proto.NoNode
	}
	return out, nil
}

// Handle processes one protocol message.
func (e *Engine) Handle(msg *proto.Message) (Out, error) {
	var out Out
	if msg.Lock != e.lock {
		return out, fmt.Errorf("%w: message for lock %d at engine for lock %d", ErrProtocol, msg.Lock, e.lock)
	}
	e.clock.Witness(msg.TS)
	switch msg.Kind {
	case proto.KindRequest:
		e.handleRequest(msg.Req, &out)
		return out, nil
	case proto.KindToken:
		if !e.requesting {
			return out, fmt.Errorf("%w: token at node %d with no request", ErrProtocol, e.self)
		}
		e.token = true
		e.requesting = false
		e.held = true
		out.Acquired = true
		return out, nil
	default:
		return out, fmt.Errorf("%w: unexpected message kind %v", ErrProtocol, msg.Kind)
	}
}

// handleRequest applies path reversal: whatever happens, the requester
// becomes this node's new probable owner.
func (e *Engine) handleRequest(req proto.Request, out *Out) {
	if e.father == proto.NoNode {
		// This node is the root (it holds the token or is about to).
		if e.held || e.requesting {
			// Busy: append the requester to the distributed queue. The
			// queue invariant guarantees next is free here.
			e.next = req.Origin
		} else {
			// Idle root: hand the token over directly.
			e.token = false
			out.Msgs = append(out.Msgs, proto.Message{
				Kind: proto.KindToken, Lock: e.lock,
				From: e.self, To: req.Origin, TS: e.clock.Tick(),
			})
		}
	} else {
		// Forward along the probable-owner chain.
		out.Msgs = append(out.Msgs, proto.Message{
			Kind: proto.KindRequest, Lock: e.lock,
			From: e.self, To: e.father, TS: e.clock.Tick(), Req: req,
		})
	}
	e.father = req.Origin
}

// Mode reported for compatibility with mixed-protocol tooling: Naimi locks
// are always exclusive.
func (e *Engine) Mode() modes.Mode {
	if e.held {
		return modes.W
	}
	return modes.None
}

// Clone returns a deep copy bound to the given clock (for exhaustive
// state-space exploration in tests).
func (e *Engine) Clone(clock *proto.Clock) *Engine {
	ne := *e
	ne.clock = clock
	return &ne
}

// Fingerprint canonically encodes the engine state for model-checking
// deduplication.
func (e *Engine) Fingerprint() string {
	return fmt.Sprintf("f%d n%d t%v h%v r%v", e.father, e.next, e.token, e.held, e.requesting)
}
