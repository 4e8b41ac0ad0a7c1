// Package ricart implements the Ricart–Agrawala permission-based
// distributed mutual-exclusion algorithm (CACM 24(1), 1981), the classic
// non-token baseline of the paper's §2 taxonomy: a requester broadcasts a
// timestamped REQUEST to all n−1 peers and enters its critical section
// after collecting n−1 REPLYs, for 2(n−1) messages per critical section —
// the quadratic aggregate traffic the paper cites when dismissing
// non-token protocols for large systems.
//
// Total order comes from Lamport timestamps with node-ID tie-breaking: a
// node that receives a REQUEST while requesting replies immediately only
// if the incoming request precedes its own; otherwise it defers the reply
// until its own release.
//
// Same conventions as the other engines: pure state machine, serialized
// calls per engine, per-link FIFO delivery (not strictly required by this
// algorithm, but the uniform contract keeps harnesses shared).
package ricart

import (
	"errors"
	"fmt"
	"sort"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Client-operation errors.
var (
	ErrHeld     = errors.New("ricart: lock already held")
	ErrNotHeld  = errors.New("ricart: lock not held")
	ErrPending  = errors.New("ricart: request already pending")
	ErrProtocol = errors.New("ricart: protocol violation")
)

// Engine is the per-node, per-lock Ricart–Agrawala state machine.
type Engine struct {
	self  proto.NodeID
	lock  proto.LockID
	n     int
	clock *proto.Clock

	requesting bool
	using      bool
	// reqTS is the timestamp of the outstanding request.
	reqTS proto.Timestamp
	// replies counts REPLYs received for the outstanding request.
	replies int
	// deferred lists peers whose REQUESTs wait for our release.
	deferred map[proto.NodeID]bool
}

// New constructs the engine for a cluster of n nodes (IDs 0..n-1). The
// algorithm is symmetric: no node starts with special state.
func New(self proto.NodeID, lock proto.LockID, n int, clock *proto.Clock) *Engine {
	return &Engine{
		self:     self,
		lock:     lock,
		n:        n,
		clock:    clock,
		deferred: make(map[proto.NodeID]bool),
	}
}

// Self returns the node this engine runs on.
func (e *Engine) Self() proto.NodeID { return e.self }

// Held reports whether the node is inside its critical section.
func (e *Engine) Held() bool { return e.using }

// Requesting reports whether a client request is outstanding.
func (e *Engine) Requesting() bool { return e.requesting }

// String summarizes the engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("ricart node %d lock %d: using=%v req=%v ts=%d replies=%d deferred=%d",
		e.self, e.lock, e.using, e.requesting, e.reqTS, e.replies, len(e.deferred))
}

// Out is the step output every exclusive-only baseline shares.
type Out = proto.ExclOut

// Acquire requests the critical section, broadcasting to every peer.
// Single-node clusters enter immediately.
func (e *Engine) Acquire() (Out, error) {
	var out Out
	if e.using {
		return out, ErrHeld
	}
	if e.requesting {
		return out, ErrPending
	}
	e.reqTS = e.clock.Tick()
	if e.n == 1 {
		e.using = true
		out.Acquired = true
		return out, nil
	}
	e.requesting = true
	e.replies = 0
	for j := 0; j < e.n; j++ {
		if proto.NodeID(j) == e.self {
			continue
		}
		out.Msgs = append(out.Msgs, proto.Message{
			Kind: proto.KindRequest, Lock: e.lock,
			From: e.self, To: proto.NodeID(j), TS: e.clock.Tick(),
			Seq: uint64(e.reqTS),
		})
	}
	return out, nil
}

// Release leaves the critical section and sends the deferred replies.
func (e *Engine) Release() (Out, error) {
	var out Out
	if !e.using {
		return out, ErrNotHeld
	}
	e.using = false
	// Deterministic reply order keeps simulations reproducible.
	ids := make([]int, 0, len(e.deferred))
	for j := range e.deferred {
		ids = append(ids, int(j))
	}
	sort.Ints(ids)
	for _, j := range ids {
		out.Msgs = append(out.Msgs, proto.Message{
			Kind: proto.KindGrant, Lock: e.lock,
			From: e.self, To: proto.NodeID(j), TS: e.clock.Tick(),
		})
	}
	e.deferred = make(map[proto.NodeID]bool)
	return out, nil
}

// Handle processes one protocol message (KindRequest = REQUEST,
// KindGrant = REPLY).
func (e *Engine) Handle(msg *proto.Message) (Out, error) {
	var out Out
	if msg.Lock != e.lock {
		return out, fmt.Errorf("%w: message for lock %d at engine for lock %d", ErrProtocol, msg.Lock, e.lock)
	}
	e.clock.Witness(msg.TS)
	switch msg.Kind {
	case proto.KindRequest:
		theirTS := proto.Timestamp(msg.Seq)
		// Defer iff we are using, or requesting with strict priority over
		// them: (ts, id) lexicographic order.
		mine := e.using || (e.requesting &&
			(e.reqTS < theirTS || (e.reqTS == theirTS && e.self < msg.From)))
		if mine {
			e.deferred[msg.From] = true
			return out, nil
		}
		out.Msgs = append(out.Msgs, proto.Message{
			Kind: proto.KindGrant, Lock: e.lock,
			From: e.self, To: msg.From, TS: e.clock.Tick(),
		})
		return out, nil
	case proto.KindGrant:
		if !e.requesting {
			return out, fmt.Errorf("%w: reply at node %d with no request", ErrProtocol, e.self)
		}
		e.replies++
		if e.replies == e.n-1 {
			e.requesting = false
			e.using = true
			out.Acquired = true
		}
		return out, nil
	default:
		return out, fmt.Errorf("%w: unexpected message kind %v", ErrProtocol, msg.Kind)
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

// Clone returns a deep copy bound to the given clock (for exhaustive
// state-space exploration in tests).
func (e *Engine) Clone(clock *proto.Clock) *Engine {
	ne := *e
	ne.clock = clock
	ne.deferred = make(map[proto.NodeID]bool, len(e.deferred))
	for k := range e.deferred {
		ne.deferred[k] = true
	}
	return &ne
}

// Fingerprint canonically encodes the engine state for model-checking
// deduplication. Unlike the token protocols, the request timestamp is
// behavioral here (it decides reply deferral), so it is included.
func (e *Engine) Fingerprint() string {
	ids := make([]int, 0, len(e.deferred))
	for j := range e.deferred {
		ids = append(ids, int(j))
	}
	sort.Ints(ids)
	return fmt.Sprintf("u%v r%v ts%d rp%d d%v", e.using, e.requesting, e.reqTS, e.replies, ids)
}
