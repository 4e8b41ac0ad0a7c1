// Package suzuki implements the Suzuki–Kasami broadcast token algorithm
// for distributed mutual exclusion (ACM TOCS 3(4), 1985), the
// classic broadcast baseline of the paper's related-work discussion:
// every request is broadcast to all n−1 other nodes, so the message cost
// is Θ(n) per critical section — exactly the "limited scalability due to
// message overhead" the paper attributes to broadcast protocols, and the
// foil for its own ~3-message asymptote.
//
// Each node tracks RN[j], the highest request number seen from node j.
// The token carries LN[j], the request number last *served* for j, plus a
// FIFO queue of nodes with outstanding requests. The token holder, on
// release, enqueues every j with RN[j] == LN[j]+1 and passes the token to
// the queue head.
//
// Same conventions as the other engines: pure state machine, serialized
// calls, per-link FIFO delivery. (This algorithm actually tolerates
// reordering, but the uniform contract keeps harnesses shared.)
package suzuki

import (
	"errors"
	"fmt"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Client-operation errors.
var (
	ErrHeld     = errors.New("suzuki: lock already held")
	ErrNotHeld  = errors.New("suzuki: lock not held")
	ErrPending  = errors.New("suzuki: request already pending")
	ErrProtocol = errors.New("suzuki: protocol violation")
)

// Engine is the per-node, per-lock Suzuki–Kasami state machine.
type Engine struct {
	self  proto.NodeID
	lock  proto.LockID
	n     int
	clock *proto.Clock

	rn []uint64 // highest request number seen per node

	hasToken   bool
	using      bool
	requesting bool
	ln         []uint64       // token state: last served request per node
	tq         []proto.NodeID // token state: waiting queue
}

// New constructs the engine for a cluster of n nodes (IDs 0..n-1).
// Node 0 starts with the token.
func New(self proto.NodeID, lock proto.LockID, n int, hasToken bool, clock *proto.Clock) *Engine {
	e := &Engine{
		self:     self,
		lock:     lock,
		n:        n,
		clock:    clock,
		rn:       make([]uint64, n),
		hasToken: hasToken,
	}
	if hasToken {
		e.ln = make([]uint64, n)
	}
	return e
}

// Self returns the node this engine runs on.
func (e *Engine) Self() proto.NodeID { return e.self }

// HasToken reports whether the token is at this node.
func (e *Engine) HasToken() bool { return e.hasToken }

// Held reports whether the node is inside its critical section.
func (e *Engine) Held() bool { return e.using }

// Requesting reports whether a client request is outstanding.
func (e *Engine) Requesting() bool { return e.requesting }

// String summarizes the engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("suzuki node %d lock %d: token=%v using=%v req=%v rn=%v",
		e.self, e.lock, e.hasToken, e.using, e.requesting, e.rn)
}

// Out is the step output every exclusive-only baseline shares.
type Out = proto.ExclOut

// Acquire requests the critical section. Unless the idle token is
// already local, the request is broadcast to every other node — the Θ(n)
// cost that motivates the paper's point-to-point design.
func (e *Engine) Acquire() (Out, error) {
	var out Out
	if e.using {
		return out, ErrHeld
	}
	if e.requesting {
		return out, ErrPending
	}
	if e.hasToken {
		e.using = true
		out.Acquired = true
		return out, nil
	}
	e.requesting = true
	e.rn[e.self]++
	seq := e.rn[e.self]
	for j := 0; j < e.n; j++ {
		if proto.NodeID(j) == e.self {
			continue
		}
		out.Msgs = append(out.Msgs, proto.Message{
			Kind: proto.KindRequest, Lock: e.lock,
			From: e.self, To: proto.NodeID(j), TS: e.clock.Tick(), Seq: seq,
		})
	}
	return out, nil
}

// Release leaves the critical section and forwards the token to the next
// outstanding requester, if any.
func (e *Engine) Release() (Out, error) {
	var out Out
	if !e.using {
		return out, ErrNotHeld
	}
	e.using = false
	e.ln[e.self] = e.rn[e.self]
	// Append every node with an unserved request that is not yet queued.
	queued := make(map[proto.NodeID]bool, len(e.tq))
	for _, j := range e.tq {
		queued[j] = true
	}
	for j := 0; j < e.n; j++ {
		id := proto.NodeID(j)
		if id != e.self && !queued[id] && e.rn[j] == e.ln[j]+1 {
			e.tq = append(e.tq, id)
		}
	}
	e.passToken(&out)
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
		j := int(msg.From)
		if j < 0 || j >= e.n {
			return out, fmt.Errorf("%w: request from unknown node %d", ErrProtocol, msg.From)
		}
		if msg.Seq > e.rn[j] {
			e.rn[j] = msg.Seq
		}
		// An idle token holder serves an outstanding request immediately.
		if e.hasToken && !e.using && e.rn[j] == e.ln[j]+1 {
			e.tq = append(e.tq, msg.From)
			e.passToken(&out)
		}
		return out, nil
	case proto.KindToken:
		if !e.requesting {
			return out, fmt.Errorf("%w: token at node %d with no request", ErrProtocol, e.self)
		}
		e.hasToken = true
		e.ln = append([]uint64(nil), msg.Vec...)
		e.tq = e.tq[:0]
		for _, r := range msg.Queue {
			e.tq = append(e.tq, r.Origin)
		}
		e.requesting = false
		e.using = true
		out.Acquired = true
		return out, nil
	default:
		return out, fmt.Errorf("%w: unexpected message kind %v", ErrProtocol, msg.Kind)
	}
}

// passToken sends the token (LN array plus queue) to the queue head.
func (e *Engine) passToken(out *Out) {
	if !e.hasToken || e.using || len(e.tq) == 0 {
		return
	}
	head := e.tq[0]
	rest := e.tq[1:]
	queue := make([]proto.Request, 0, len(rest))
	for _, j := range rest {
		queue = append(queue, proto.Request{Origin: j})
	}
	e.hasToken = false
	out.Msgs = append(out.Msgs, proto.Message{
		Kind: proto.KindToken, Lock: e.lock,
		From: e.self, To: head, TS: e.clock.Tick(),
		Vec: append([]uint64(nil), e.ln...), Queue: queue,
	})
	e.ln = nil
	e.tq = nil
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
	ne.rn = append([]uint64(nil), e.rn...)
	ne.ln = append([]uint64(nil), e.ln...)
	ne.tq = append([]proto.NodeID(nil), e.tq...)
	return &ne
}

// Fingerprint canonically encodes the engine state for model-checking
// deduplication.
func (e *Engine) Fingerprint() string {
	return fmt.Sprintf("t%v u%v r%v rn%v ln%v q%v", e.hasToken, e.using, e.requesting, e.rn, e.ln, e.tq)
}
