// Package raymond implements Raymond's tree-based distributed
// mutual-exclusion algorithm (ACM TOCS 7(1), 1989), a second baseline for
// the paper's related-work discussion: like the hierarchical protocol it
// is token-based with O(log n) messages on a tree, but its tree is
// *static* — holder pointers flip along edges of a fixed topology, and no
// path compression ever happens. The paper credits part of its advantage
// over such schemes to its dynamically adapting tree.
//
// Each node keeps a pointer toward the token (holder), a FIFO queue of
// neighbors (and possibly itself) that want the token, and an `asked`
// flag so at most one request per node is outstanding. The token travels
// hop by hop along tree edges, serving queues on its way.
//
// The engine is a pure state machine with the same conventions as
// internal/hlock and internal/naimi: callers serialize calls per engine
// and deliver messages per-link FIFO.
package raymond

import (
	"errors"
	"fmt"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Client-operation errors.
var (
	ErrHeld     = errors.New("raymond: lock already held")
	ErrNotHeld  = errors.New("raymond: lock not held")
	ErrPending  = errors.New("raymond: request already pending")
	ErrProtocol = errors.New("raymond: protocol violation")
)

// Engine is the per-node, per-lock Raymond state machine.
type Engine struct {
	self  proto.NodeID
	lock  proto.LockID
	clock *proto.Clock

	// holder points along the static tree toward the token; self when
	// this node has it.
	holder proto.NodeID
	// queue holds neighbors (or self) waiting for the token, FIFO.
	queue []proto.NodeID
	// asked records that a request to holder is outstanding.
	asked bool
	using bool
	// requesting marks a local client waiting for the critical section.
	requesting bool
}

// New constructs the engine. holder must point along a fixed tree toward
// the node that initially has the token (itself for that node).
// The tree topology never changes; only holder directions flip.
func New(self proto.NodeID, lock proto.LockID, holder proto.NodeID, clock *proto.Clock) *Engine {
	return &Engine{self: self, lock: lock, clock: clock, holder: holder}
}

// Self returns the node this engine runs on.
func (e *Engine) Self() proto.NodeID { return e.self }

// HasToken reports whether the token is at this node.
func (e *Engine) HasToken() bool { return e.holder == e.self }

// Held reports whether the node is inside its critical section.
func (e *Engine) Held() bool { return e.using }

// Requesting reports whether a client request is outstanding.
func (e *Engine) Requesting() bool { return e.requesting }

// Holder returns the current holder pointer.
func (e *Engine) Holder() proto.NodeID { return e.holder }

// QueueLen returns the number of queued requesters at this node.
func (e *Engine) QueueLen() int { return len(e.queue) }

// String summarizes the engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("raymond node %d lock %d: holder=%d using=%v req=%v asked=%v q=%v",
		e.self, e.lock, e.holder, e.using, e.requesting, e.asked, e.queue)
}

// Out is the step output every exclusive-only baseline shares.
type Out = proto.ExclOut

// Acquire requests the critical section.
func (e *Engine) Acquire() (Out, error) {
	var out Out
	if e.using {
		return out, ErrHeld
	}
	if e.requesting {
		return out, ErrPending
	}
	e.requesting = true
	e.queue = append(e.queue, e.self)
	e.assignOrAsk(&out)
	return out, nil
}

// Release leaves the critical section, moving the token onward if
// someone is queued.
func (e *Engine) Release() (Out, error) {
	var out Out
	if !e.using {
		return out, ErrNotHeld
	}
	e.using = false
	e.assignOrAsk(&out)
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
		e.queue = append(e.queue, msg.From)
		e.assignOrAsk(&out)
		return out, nil
	case proto.KindToken:
		e.holder = e.self
		e.asked = false
		e.assignOrAsk(&out)
		return out, nil
	default:
		return out, fmt.Errorf("%w: unexpected message kind %v", ErrProtocol, msg.Kind)
	}
}

// assignOrAsk is Raymond's ASSIGN_PRIVILEGE / MAKE_REQUEST pair: if this
// node has the idle token and a queue, pass the privilege to the head
// (possibly itself); otherwise make sure a request is on its way toward
// the token.
func (e *Engine) assignOrAsk(out *Out) {
	if e.holder == e.self && !e.using && len(e.queue) > 0 {
		head := e.queue[0]
		e.queue = e.queue[1:]
		if head == e.self {
			e.using = true
			e.requesting = false
			out.Acquired = true
		} else {
			e.holder = head
			e.asked = false
			out.Msgs = append(out.Msgs, proto.Message{
				Kind: proto.KindToken, Lock: e.lock,
				From: e.self, To: head, TS: e.clock.Tick(),
			})
		}
	}
	if e.holder != e.self && !e.asked && len(e.queue) > 0 {
		e.asked = true
		out.Msgs = append(out.Msgs, proto.Message{
			Kind: proto.KindRequest, Lock: e.lock,
			From: e.self, To: e.holder, TS: e.clock.Tick(),
		})
	}
}

// Mode reports the held mode for mixed-protocol tooling (always
// exclusive).
func (e *Engine) Mode() modes.Mode {
	if e.using {
		return modes.W
	}
	return modes.None
}

// BinaryTreeHolder computes the initial holder pointer for node self in a
// balanced binary tree over n nodes rooted at node 0 (which starts with
// the token): the parent of i is (i-1)/2.
func BinaryTreeHolder(self proto.NodeID) proto.NodeID {
	if self == 0 {
		return 0
	}
	return (self - 1) / 2
}

// Clone returns a deep copy bound to the given clock (for exhaustive
// state-space exploration in tests).
func (e *Engine) Clone(clock *proto.Clock) *Engine {
	ne := *e
	ne.clock = clock
	ne.queue = append([]proto.NodeID(nil), e.queue...)
	return &ne
}

// Fingerprint canonically encodes the engine state for model-checking
// deduplication.
func (e *Engine) Fingerprint() string {
	return fmt.Sprintf("h%d a%v u%v r%v q%v", e.holder, e.asked, e.using, e.requesting, e.queue)
}
