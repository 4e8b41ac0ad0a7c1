// Package hlock implements the decentralized hierarchical locking protocol
// of Desai & Mueller, "Scalable Distributed Concurrency Services for
// Hierarchical Locking" (ICDCS 2003).
//
// Each Engine is the per-node state machine for one lock. Nodes form a
// logical tree via parent pointers; the root holds the token. Compatible
// requests are granted as copies by the first node on the propagation path
// with a sufficiently strong owned mode (Rule 3.1), building a copyset of
// children. Incompatible requests queue locally when safe (Rule 4,
// Tab. 2a) or at the token node; the token freezes conflicting modes
// (Rule 6, Tab. 2b) so queued requests cannot starve. Releases propagate
// only when a subtree's owned mode weakens (Rule 5). Upgrade locks convert
// atomically from U to W at the token (Rule 7).
//
// The engine is transport-agnostic and purely reactive: every input
// (client operation or protocol message) returns the set of messages to
// send and local events that occurred. It performs no I/O, holds no locks
// and never blocks; callers must serialize calls per engine (one goroutine
// or one simulator actor per node) and must deliver messages between any
// ordered pair of nodes in FIFO order (as TCP does) — see DESIGN.md.
package hlock

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Client-operation errors. Protocol-internal inconsistencies are reported
// as ErrProtocol wraps; they indicate a bug or a violated transport
// assumption, never a normal condition.
var (
	ErrHeld       = errors.New("hlock: lock already held by this node")
	ErrNotHeld    = errors.New("hlock: lock not held by this node")
	ErrPending    = errors.New("hlock: operation already pending")
	ErrBadMode    = errors.New("hlock: invalid lock mode")
	ErrNotUpgrade = errors.New("hlock: upgrade requires holding mode U")
	ErrProtocol   = errors.New("hlock: protocol violation")
)

// EventKind classifies local events emitted by the engine.
type EventKind uint8

// Event kinds.
const (
	// EventAcquired: the node's pending request was granted; Mode is the
	// held mode. Local reports whether the acquisition was message-free
	// (Rule 2's local path).
	EventAcquired EventKind = iota + 1
	// EventUpgraded: the node's U lock was upgraded to W (Rule 7).
	EventUpgraded
)

// Event is a local protocol event delivered to the runtime. Trace is the
// causal identity of the client operation the event completes (zero when
// the triggering message came from an untraced peer).
type Event struct {
	Kind  EventKind
	Mode  modes.Mode
	Local bool
	Trace proto.TraceID
}

// Out carries everything an engine step produced: messages to transmit
// and events for the local client.
type Out struct {
	Msgs []proto.Message
	// Events holds the step's local events. A step that grants its own
	// caller at once (Acquire or Upgrade served from local knowledge)
	// returns its single event in the engine's own storage: it is valid
	// until the next call on that engine, which is as long as every caller
	// looks at it. Every other path appends to a slice of its own.
	Events []Event
	// Stale reports that the input message was dropped by epoch fencing:
	// its epoch differs from the engine's, or the engine is fenced awaiting
	// a recovery reseed. The host may use it to hint a lagging peer at the
	// current (root, epoch) so it can catch up.
	Stale bool
}

func (o *Out) send(m proto.Message) { o.Msgs = append(o.Msgs, m) }
func (o *Out) event(e Event)        { o.Events = append(o.Events, e) }

// granted returns the Out of a step whose whole effect is one immediate
// grant to its caller, the event held in the engine's scratch slot (see
// Out.Events). The slice has no spare capacity, so appending to it
// copies rather than writes into the engine.
func (e *Engine) granted(ev Event) Out {
	e.scratch[0] = ev
	return Out{Events: e.scratch[:1:1]}
}

// Options toggles individual protocol optimizations, primarily for the
// ablation experiments. The zero value is the full protocol.
type Options struct {
	// NoLocalQueues disables Rule 4.1 queuing at non-token nodes; every
	// non-grantable request is forwarded to the parent. Implies
	// NoPathReversal (reversal is only safe when pending nodes terminate
	// arriving requests by queuing them).
	NoLocalQueues bool
	// NoChildGrants disables Rule 3.1; only the token node grants.
	NoChildGrants bool
	// NoFreezing disables Rule 6; FIFO fairness is no longer protected
	// and compatible requests may starve waiting incompatible ones.
	NoFreezing bool
	// NoLocalAcquire disables Rule 2's message-free acquisition path.
	NoLocalAcquire bool
	// NoPathReversal disables Naimi-style routing-pointer reversal at
	// forwarding nodes and reverts local queuing to the strict Tab. 2(a)
	// policy. The paper's pseudocode omits routing-pointer maintenance;
	// without reversal, request paths grow with the token-transfer rate
	// and the measured ~3-message asymptote of its Figure 5 is
	// unreachable, so reversal (inherited from Naimi, the protocol this
	// work extends) is on by default. Reversal requires nodes with a
	// pending request to queue every arriving request (they act as chain
	// terminators, exactly like a requester in Naimi's algorithm), which
	// supersedes Tab. 2(a)'s forward entries; see DESIGN.md.
	NoPathReversal bool
}

// effective normalizes option implications.
func (o Options) effective() Options {
	if o.NoLocalQueues {
		o.NoPathReversal = true
	}
	return o
}

// Engine is the hierarchical-locking state machine of one node for one
// lock. The zero value is not usable; construct with New.
type Engine struct {
	self  proto.NodeID
	lock  proto.LockID
	clock *proto.Clock
	opt   Options

	token   bool
	parent  proto.NodeID
	held    modes.Mode
	pending modes.Mode

	// epoch is the lock's recovery epoch: bumped by every token
	// regeneration round after a node crash. The engine stamps it on all
	// outbound messages and silently drops inputs whose epoch differs
	// (stale pre-crash traffic, counted in stale). fenced bars all inputs
	// and local completions between a recovery claim (PrepareReseed) and
	// the round's Reseed, so the state reported to the regenerator cannot
	// drift while the round is in flight.
	epoch  uint32
	fenced bool
	stale  uint64

	// pendingReq is the outstanding request behind pending, retained so a
	// recovery reseed can re-issue it (same trace ID, enabling dedup if
	// the original survived).
	pendingReq proto.Request

	// initToken and initParent freeze the constructed topology so
	// AtInitialState can decide whether the engine has drifted from the
	// state a fresh New would produce (the member runtime evicts such
	// engines and recreates them lazily). initEpoch is the epoch the
	// engine was (re)created at — see SeedEpoch.
	initToken  bool
	initParent proto.NodeID
	initEpoch  uint32

	// children maps each copyset child to the owned mode this node last
	// learned for it (grants strengthen it, releases weaken it).
	children map[proto.NodeID]modes.Mode
	// sentFrozen records the frozen view last pushed to each child, for
	// dedup (paper footnote a).
	sentFrozen map[proto.NodeID]modes.Set

	// queue holds locally queued requests in arrival order.
	queue []proto.Request

	frozen modes.Set

	// Grant sequencing detects releases that crossed an in-flight grant on
	// the child→parent link (the child reported its owned mode before
	// learning of the grant). grantSeqOut/grantModeOut record, per child,
	// the number and mode of the latest copy grant sent; grantSeqIn
	// records, per granter, the latest grant sequence received, echoed on
	// every release.
	grantSeqOut  map[proto.NodeID]uint64
	grantModeOut map[proto.NodeID]modes.Mode
	grantSeqIn   map[proto.NodeID]uint64

	// cause is the trace ID of the input currently (or last) being
	// processed: the client operation's ID at Acquire/Release/Upgrade, the
	// message's ID in Handle. Messages the engine originates that are not
	// tied to a specific queued request (releases, freeze pushes) inherit
	// it, so e.g. the freeze fan-out triggered by a request carries that
	// request's identity. It is bookkeeping only — the protocol never
	// branches on it — and is therefore excluded from Fingerprint.
	cause proto.TraceID

	// scratch is the storage of an immediate grant's event (see granted);
	// not protocol state, so neither cloned nor fingerprinted.
	scratch [1]Event
}

// New creates the engine for one lock on one node. Exactly one node in
// the system must be constructed with hasToken=true (the initial tree
// root); every other node's parent chain must reach it. The Lamport clock
// is shared by all engines of the node.
func New(self proto.NodeID, lock proto.LockID, parent proto.NodeID, hasToken bool, clock *proto.Clock, opt Options) *Engine {
	e := &Engine{
		self:         self,
		lock:         lock,
		clock:        clock,
		opt:          opt.effective(),
		token:        hasToken,
		parent:       parent,
		initToken:    hasToken,
		initParent:   parent,
		children:     make(map[proto.NodeID]modes.Mode),
		sentFrozen:   make(map[proto.NodeID]modes.Set),
		grantSeqOut:  make(map[proto.NodeID]uint64),
		grantModeOut: make(map[proto.NodeID]modes.Mode),
		grantSeqIn:   make(map[proto.NodeID]uint64),
	}
	if hasToken {
		e.parent = proto.NoNode
		e.initParent = proto.NoNode
	}
	return e
}

// Clone returns a deep copy of the engine bound to the given clock. It
// exists for exhaustive state-space exploration in tests (the model
// checker forks system states at every nondeterministic choice).
func (e *Engine) Clone(clock *proto.Clock) *Engine {
	ne := &Engine{
		self:         e.self,
		lock:         e.lock,
		clock:        clock,
		opt:          e.opt,
		token:        e.token,
		parent:       e.parent,
		initToken:    e.initToken,
		initParent:   e.initParent,
		initEpoch:    e.initEpoch,
		held:         e.held,
		pending:      e.pending,
		pendingReq:   e.pendingReq,
		epoch:        e.epoch,
		fenced:       e.fenced,
		stale:        e.stale,
		frozen:       e.frozen,
		children:     make(map[proto.NodeID]modes.Mode, len(e.children)),
		sentFrozen:   make(map[proto.NodeID]modes.Set, len(e.sentFrozen)),
		grantSeqOut:  make(map[proto.NodeID]uint64, len(e.grantSeqOut)),
		grantModeOut: make(map[proto.NodeID]modes.Mode, len(e.grantModeOut)),
		grantSeqIn:   make(map[proto.NodeID]uint64, len(e.grantSeqIn)),
		queue:        append([]proto.Request(nil), e.queue...),
		cause:        e.cause,
	}
	for k, v := range e.children {
		ne.children[k] = v
	}
	for k, v := range e.sentFrozen {
		ne.sentFrozen[k] = v
	}
	for k, v := range e.grantSeqOut {
		ne.grantSeqOut[k] = v
	}
	for k, v := range e.grantModeOut {
		ne.grantModeOut[k] = v
	}
	for k, v := range e.grantSeqIn {
		ne.grantSeqIn[k] = v
	}
	return ne
}

// Fingerprint returns a canonical encoding of the engine's entire state,
// used by the model checker to deduplicate explored states. Two engines
// with equal fingerprints behave identically on all future inputs
// (modulo Lamport clock values, which the checker encodes separately).
func (e *Engine) Fingerprint() string {
	// The header is assembled with strconv rather than Fprintf: the model
	// checker calls Fingerprint once per explored state, and the reflect
	// path of fmt dominates its cost on small states.
	const hexdigits = "0123456789abcdef"
	bit := func(v bool) byte {
		if v {
			return '1'
		}
		return '0'
	}
	hdr := make([]byte, 0, 48)
	hdr = append(hdr, 't', bit(e.token), ' ', 'p')
	hdr = strconv.AppendUint(hdr, uint64(e.parent), 10)
	hdr = append(hdr, ' ', 'h')
	hdr = strconv.AppendUint(hdr, uint64(e.held), 10)
	hdr = append(hdr, ' ', 'q')
	hdr = strconv.AppendUint(hdr, uint64(e.pending), 10)
	hdr = append(hdr, ' ', 'f', hexdigits[uint8(e.frozen)>>4], hexdigits[uint8(e.frozen)&0xf], ' ', 'e')
	hdr = strconv.AppendUint(hdr, uint64(e.epoch), 10)
	hdr = append(hdr, '/', bit(e.fenced), '/')
	hdr = strconv.AppendUint(hdr, uint64(e.pendingReq.Mode), 10)
	hdr = append(hdr, '/')
	hdr = strconv.AppendUint(hdr, uint64(e.pendingReq.Priority), 10)
	hdr = append(hdr, '|')
	var b strings.Builder
	b.Write(hdr)
	ids := make([]int, 0, len(e.children))
	for id := range e.children {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "c%d:%d/%02x/%d/%d;", id, e.children[proto.NodeID(id)],
			uint8(e.sentFrozen[proto.NodeID(id)]), e.grantSeqOut[proto.NodeID(id)],
			e.grantModeOut[proto.NodeID(id)])
	}
	ids = ids[:0]
	for id := range e.grantSeqIn {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "g%d:%d;", id, e.grantSeqIn[proto.NodeID(id)])
	}
	for _, r := range e.queue {
		// Timestamps are excluded: the engine never branches on them
		// (queues are arrival-ordered, merges priority-ordered), so
		// including them would split behaviorally identical states.
		fmt.Fprintf(&b, "r%d:%d:%d;", r.Origin, r.Mode, r.Priority)
	}
	return b.String()
}

// Accessors (used by runtimes, oracles and tests).

// Self returns the node ID this engine runs on.
func (e *Engine) Self() proto.NodeID { return e.self }

// Lock returns the lock this engine manages.
func (e *Engine) Lock() proto.LockID { return e.lock }

// IsToken reports whether this node currently holds the token.
func (e *Engine) IsToken() bool { return e.token }

// Parent returns the current parent pointer (NoNode at the token node).
func (e *Engine) Parent() proto.NodeID { return e.parent }

// Held returns the mode currently held (None outside critical sections).
func (e *Engine) Held() modes.Mode { return e.held }

// Pending returns the mode of the outstanding request, if any.
func (e *Engine) Pending() modes.Mode { return e.pending }

// Frozen returns the node's current frozen mode set.
func (e *Engine) Frozen() modes.Set { return e.frozen }

// QueueLen returns the number of locally queued requests.
func (e *Engine) QueueLen() int { return len(e.queue) }

// Queue returns a copy of the locally queued requests in queue order
// (nil when empty), for the introspection inventory.
func (e *Engine) Queue() []proto.Request {
	if len(e.queue) == 0 {
		return nil
	}
	return append([]proto.Request(nil), e.queue...)
}

// Epoch returns the lock's current recovery epoch at this node.
func (e *Engine) Epoch() uint32 { return e.epoch }

// Fenced reports whether the engine is fenced for a recovery round:
// between PrepareReseed and Reseed.
func (e *Engine) Fenced() bool { return e.fenced }

// StaleDrops returns how many inputs epoch fencing has discarded.
func (e *Engine) StaleDrops() uint64 { return e.stale }

// SeedEpoch initializes the engine's recovery epoch, and the epoch
// AtInitialState compares against. Call immediately after New, before
// feeding any input, when lazily recreating an engine for a lock that
// has already been through recovery rounds.
func (e *Engine) SeedEpoch(epoch uint32) {
	e.epoch, e.initEpoch = epoch, epoch
}

// AtInitialState reports whether the engine's state is indistinguishable
// from a freshly constructed one (same self, lock, topology, options):
// nothing held or pending, no queued requests, no frozen modes, an empty
// copyset, no grant-sequencing residue, and the token/parent exactly as
// constructed. Such an engine can be evicted and recreated lazily with
// no observable effect on the protocol — the recreated engine's local
// transition function is identical on all future inputs — which is what
// lets the member runtime bound its per-lock tables under workloads over
// unbounded ephemeral resource names.
func (e *Engine) AtInitialState() bool {
	if e.token != e.initToken || e.parent != e.initParent ||
		e.held != modes.None || e.pending != modes.None ||
		e.epoch != e.initEpoch || e.fenced {
		return false
	}
	return len(e.queue) == 0 && e.frozen.Empty() &&
		len(e.children) == 0 && len(e.sentFrozen) == 0 &&
		len(e.grantSeqOut) == 0 && len(e.grantModeOut) == 0 && len(e.grantSeqIn) == 0
}

// Children returns a copy of the copyset (child → owned mode).
func (e *Engine) Children() map[proto.NodeID]modes.Mode {
	out := make(map[proto.NodeID]modes.Mode, len(e.children))
	for k, v := range e.children {
		out[k] = v
	}
	return out
}

// References reports whether the engine's state mentions node n: as
// the probable owner (parent), as a copyset child, or as the origin of
// a queued request. Crash recovery uses it to find every lock whose
// probable-owner chain passes through a dead node, so those locks
// regenerate eagerly instead of wedging until a client stumbles into
// the dead reference.
func (e *Engine) References(n proto.NodeID) bool {
	if e.parent == n {
		return true
	}
	if _, ok := e.children[n]; ok {
		return true
	}
	for _, r := range e.queue {
		if r.Origin == n {
			return true
		}
	}
	return false
}

// Owned returns the node's owned mode: the strongest mode held or owned
// in the subtree rooted here (Definition 3).
func (e *Engine) Owned() modes.Mode {
	// Skipping the range entirely matters: an empty map range still pays
	// the iterator setup, and the no-children case is the common one on
	// the local acquire/release fast path.
	if len(e.children) == 0 {
		return e.held
	}
	mo := e.held
	for _, m := range e.children {
		mo = modes.Max(mo, m)
	}
	return mo
}

// ownedChildren folds only the children's modes, excluding the local held
// mode. Used to decide the token node's own queued requests (upgrade).
func (e *Engine) ownedChildren() modes.Mode {
	if len(e.children) == 0 {
		return modes.None
	}
	mo := modes.None
	for _, m := range e.children {
		mo = modes.Max(mo, m)
	}
	return mo
}

// String summarizes the engine state for traces and test failures.
func (e *Engine) String() string {
	return fmt.Sprintf("node %d lock %d: token=%v parent=%d held=%v pending=%v owned=%v q=%d frozen=%v kids=%d",
		e.self, e.lock, e.token, e.parent, e.held, e.pending, e.Owned(), len(e.queue), e.frozen, len(e.children))
}

// Acquire starts a lock request in mode m (Rule 2) at the default
// priority. If the mode can be served with local knowledge, Out contains
// an immediate EventAcquired and no messages; otherwise the request is
// sent toward the tree root or queued at the token node.
func (e *Engine) Acquire(m modes.Mode) (Out, error) {
	return e.AcquirePri(m, 0)
}

// AcquirePri is Acquire with a request priority: queued requests at the
// token node are served highest-priority first (FIFO within a level),
// the strict priority arbitration of the prioritized token protocols
// ([11, 12]) the paper builds on. Priority 0 is the base FIFO protocol.
func (e *Engine) AcquirePri(m modes.Mode, priority uint8) (Out, error) {
	return e.AcquireTraced(m, priority, proto.TraceID{})
}

// AcquireTraced is AcquirePri with an explicit causal trace ID minted by
// the caller (the member or simulator runtime). A zero trace derives one
// from the request's Lamport timestamp, which is unique per node and
// deterministic, so seeded simulations stay reproducible.
func (e *Engine) AcquireTraced(m modes.Mode, priority uint8, trace proto.TraceID) (Out, error) {
	var out Out
	if m == modes.None || !m.Valid() {
		return out, fmt.Errorf("%w: %v", ErrBadMode, m)
	}
	if e.held != modes.None {
		return out, fmt.Errorf("%w (holding %v)", ErrHeld, e.held)
	}
	if e.pending != modes.None {
		return out, fmt.Errorf("%w (pending %v)", ErrPending, e.pending)
	}
	if e.fenced {
		// A recovery round is in flight: complete nothing and send
		// nothing, so the state claimed to the regenerator cannot drift.
		// The request is recorded and re-issued toward the new root at
		// Reseed.
		e.pending = m
		ts := e.clock.Tick()
		e.cause = e.traceFor(trace, ts)
		e.pendingReq = proto.Request{Origin: e.self, Mode: m, TS: ts, Priority: priority, Trace: e.cause}
		return out, nil
	}

	mo := e.Owned()
	if e.token {
		// Rule 3.2 applied to the local client: the token node needs only
		// compatibility with its owned mode; the frozen check preserves
		// FIFO toward queued requests.
		if modes.Compatible(mo, m) && !e.frozen.Has(m) {
			e.held = m
			e.cause = e.traceOrTick(trace)
			return e.granted(Event{Kind: EventAcquired, Mode: m, Local: true, Trace: e.cause}), nil
		}
		e.pending = m
		ts := e.clock.Tick()
		e.cause = e.traceFor(trace, ts)
		e.pendingReq = proto.Request{Origin: e.self, Mode: m, TS: ts, Priority: priority, Trace: e.cause}
		e.enqueue(e.pendingReq)
		e.serveQueue(&out)
		return out, nil
	}

	// Rule 2: message-free acquisition when the owned mode already covers
	// the request.
	if !e.opt.NoLocalAcquire && mo != modes.None &&
		modes.Compatible(mo, m) && modes.AtLeast(mo, m) {
		if !e.frozen.Has(m) {
			e.held = m
			e.cause = e.traceOrTick(trace)
			return e.granted(Event{Kind: EventAcquired, Mode: m, Local: true, Trace: e.cause}), nil
		}
		// Covered but frozen: wait locally for the thaw rather than
		// sending a request. A request for a mode we already own could be
		// granted inside our own copyset subtree, creating parent-pointer
		// cycles; deferring locally keeps the invariant that a granter is
		// never in the requester's subtree. serveLocalQueue completes (or
		// forwards, if the owned mode meanwhile weakens) the request.
		e.pending = m
		ts := e.clock.Tick()
		e.cause = e.traceFor(trace, ts)
		e.pendingReq = proto.Request{Origin: e.self, Mode: m, TS: ts, Priority: priority, Trace: e.cause}
		e.enqueue(e.pendingReq)
		return out, nil
	}

	e.pending = m
	ts := e.clock.Tick()
	e.cause = e.traceFor(trace, ts)
	req := proto.Request{Origin: e.self, Mode: m, TS: ts, Priority: priority, Trace: e.cause}
	e.pendingReq = req
	out.send(proto.Message{
		Kind: proto.KindRequest, Lock: e.lock,
		From: e.self, To: e.parent, TS: e.clock.Tick(), Req: req, Trace: req.Trace,
		Epoch: e.epoch,
	})
	return out, nil
}

// traceFor resolves the effective trace ID for a client operation:
// the caller-minted ID if any, else one derived from the node's Lamport
// time (which the caller just advanced or read).
func (e *Engine) traceFor(trace proto.TraceID, ts proto.Timestamp) proto.TraceID {
	if !trace.IsZero() {
		return trace
	}
	return proto.TraceID{Node: e.self, Seq: uint64(ts)}
}

// traceOrTick is traceFor for a step that needs no timestamp of its own
// (an immediate local grant, a release): the clock ticks only to mint
// the trace ID nobody passed in. A caller that minted one has already
// ticked for it, so the step costs the shared clock nothing; with a zero
// trace (the simulator, the model checker) the tick is the one traceFor
// always took.
func (e *Engine) traceOrTick(trace proto.TraceID) proto.TraceID {
	if !trace.IsZero() {
		return trace
	}
	return proto.TraceID{Node: e.self, Seq: uint64(e.clock.Tick())}
}

// Release ends the critical section (Rule 5). At the token node it
// reconsiders the queue; elsewhere it notifies the parent only if the
// subtree's owned mode weakened.
func (e *Engine) Release() (Out, error) {
	return e.ReleaseTraced(proto.TraceID{})
}

// ReleaseTraced is Release with an explicit causal trace ID for the
// release operation (zero derives one from the Lamport clock); release
// and freeze messages the release triggers carry it.
func (e *Engine) ReleaseTraced(trace proto.TraceID) (Out, error) {
	var out Out
	if e.held == modes.None {
		return out, ErrNotHeld
	}
	if e.pending != modes.None {
		// Only an upgrade can be pending while holding; releasing U with
		// the W upgrade outstanding would corrupt the queue.
		return out, fmt.Errorf("%w: release while upgrade pending", ErrPending)
	}
	e.cause = e.traceOrTick(trace)
	if e.fenced {
		// Recovery round in flight: drop the hold locally and send
		// nothing. Reseed reports the weakened owned mode to the new root
		// (the round accounted the pre-release mode for this node).
		e.held = modes.None
		return out, nil
	}
	prev := e.Owned()
	e.held = modes.None
	e.afterWeaken(prev, &out)
	return out, nil
}

// Upgrade atomically converts a held U lock into W without releasing it
// (Rule 7). Because U requests are always served by token transfer, the
// holder of U is necessarily the token node. The upgrade is granted
// immediately when no other node holds a copy; otherwise it queues as a
// self-request, freezing reader modes until the copyset drains.
func (e *Engine) Upgrade() (Out, error) {
	return e.UpgradePri(0)
}

// UpgradePri is Upgrade with a queue priority for the W self-request
// (see AcquirePri).
func (e *Engine) UpgradePri(priority uint8) (Out, error) {
	return e.UpgradeTraced(priority, proto.TraceID{})
}

// UpgradeTraced is UpgradePri with an explicit causal trace ID (zero
// derives one from the Lamport clock).
func (e *Engine) UpgradeTraced(priority uint8, trace proto.TraceID) (Out, error) {
	var out Out
	if e.held != modes.U {
		return out, fmt.Errorf("%w (holding %v)", ErrNotUpgrade, e.held)
	}
	if e.pending != modes.None {
		return out, fmt.Errorf("%w (pending %v)", ErrPending, e.pending)
	}
	if !e.token {
		return out, fmt.Errorf("%w: U held by non-token node", ErrProtocol)
	}
	if e.fenced {
		// Recovery round in flight: record the upgrade and defer it. As
		// the U holder this node will be chosen root, and Reseed enqueues
		// the W self-request against the regenerated copyset.
		e.pending = modes.W
		ts := e.clock.Tick()
		e.cause = e.traceFor(trace, ts)
		e.pendingReq = proto.Request{Origin: e.self, Mode: modes.W, TS: ts, Priority: priority, Trace: e.cause}
		return out, nil
	}
	if modes.Compatible(e.ownedChildren(), modes.W) {
		e.held = modes.W
		e.cause = e.traceOrTick(trace)
		return e.granted(Event{Kind: EventUpgraded, Mode: modes.W, Local: true, Trace: e.cause}), nil
	}
	e.pending = modes.W
	ts := e.clock.Tick()
	e.cause = e.traceFor(trace, ts)
	e.pendingReq = proto.Request{Origin: e.self, Mode: modes.W, TS: ts, Priority: priority, Trace: e.cause}
	e.enqueue(e.pendingReq)
	e.serveQueue(&out)
	return out, nil
}

// Handle processes one protocol message addressed to this node.
func (e *Engine) Handle(msg *proto.Message) (Out, error) {
	var out Out
	if msg.Lock != e.lock {
		return out, fmt.Errorf("%w: message for lock %d handled by lock %d", ErrProtocol, msg.Lock, e.lock)
	}
	e.clock.Witness(msg.TS)
	// Epoch fencing: traffic from a different recovery epoch is stale
	// (pre-crash tokens, grants and requests that survived a regeneration
	// round), and a fenced engine is mid-round with its claimed state
	// frozen. Both are dropped silently — liveness is restored by the
	// round's reseed and the origins' request re-issue, not by serving
	// old-world messages.
	if e.fenced || msg.Epoch != e.epoch {
		e.stale++
		out.Stale = true
		return out, nil
	}
	// Inherit the message's causal identity: messages this step originates
	// that are not tied to a specific queued request carry it onward. For
	// requests, prefer the request's own ID (authoritative even if the
	// forwarding hop lost the envelope's).
	e.cause = msg.Trace
	if msg.Kind == proto.KindRequest && !msg.Req.Trace.IsZero() {
		e.cause = msg.Req.Trace
	}
	switch msg.Kind {
	case proto.KindRequest:
		return out, e.handleRequest(msg.Req, &out)
	case proto.KindGrant:
		return out, e.handleGrant(msg, &out)
	case proto.KindToken:
		return out, e.handleToken(msg, &out)
	case proto.KindRelease:
		return out, e.handleRelease(msg, &out)
	case proto.KindFreeze:
		return out, e.handleFreeze(msg, &out)
	default:
		return out, fmt.Errorf("%w: unknown message kind %d", ErrProtocol, msg.Kind)
	}
}

// handleRequest routes an incoming request (Rules 3, 4).
func (e *Engine) handleRequest(req proto.Request, out *Out) error {
	if req.Origin == e.self {
		return fmt.Errorf("%w: node %d received its own request", ErrProtocol, e.self)
	}
	if e.token {
		// Rule 3.2 / 4.2: the token node serves or queues, never forwards.
		// Enqueueing followed by a queue scan covers both immediate grants
		// (the scan serves any unfrozen compatible request right away —
		// harmless to queued ones, which it cannot conflict with) and
		// queuing with a frozen-set refresh.
		e.enqueue(req)
		e.serveQueue(out)
		return nil
	}

	// Rule 3.1: grant a copy if this node's owned mode covers the request.
	if !e.opt.NoChildGrants &&
		modes.GrantableByCopy(e.Owned(), req.Mode) && !e.frozen.Has(req.Mode) {
		e.grantCopy(req, out)
		return nil
	}
	// Rule 4.1: queue behind our own pending request. With path reversal
	// (default) a pending node queues everything — it is a chain
	// terminator, like a requester in Naimi's algorithm, which is what
	// makes reversal safe. With NoPathReversal the strict Tab. 2(a)
	// policy applies instead.
	if !e.opt.NoLocalQueues && e.pending != modes.None &&
		(!e.opt.NoPathReversal || modes.ShouldQueue(e.pending, req.Mode)) {
		e.enqueue(req)
		return nil
	}
	if e.parent == proto.NoNode {
		return fmt.Errorf("%w: non-token node %d has no parent to forward to", ErrProtocol, e.self)
	}
	out.send(proto.Message{
		Kind: proto.KindRequest, Lock: e.lock,
		From: e.self, To: e.parent, TS: e.clock.Tick(), Req: req, Trace: req.Trace,
		Epoch: e.epoch,
	})
	// Path reversal: a pure router (owning nothing, requesting nothing)
	// repoints at the requester, compressing future request paths. Nodes
	// that own a mode must keep their copyset parent for releases, and
	// pending nodes queue above, so only stateless routers reverse.
	if !e.opt.NoPathReversal && e.Owned() == modes.None && e.pending == modes.None {
		e.parent = req.Origin
	}
	return nil
}

// handleGrant installs a granted copy (operational spec of Rule 3).
func (e *Engine) handleGrant(msg *proto.Message, out *Out) error {
	if e.pending == modes.None {
		return fmt.Errorf("%w: grant with no pending request at node %d", ErrProtocol, e.self)
	}
	if msg.Mode != e.pending {
		return fmt.Errorf("%w: granted %v but pending %v", ErrProtocol, msg.Mode, e.pending)
	}
	oldParent := e.parent
	oldOwned := e.Owned()
	e.parent = msg.From
	e.grantSeqIn[msg.From] = msg.Seq
	e.frozen = msg.Frozen
	e.held = e.pending
	e.pending = modes.None
	out.event(Event{Kind: EventAcquired, Mode: e.held, Trace: msg.Trace})
	if msg.From != oldParent && oldOwned != modes.None {
		// Detach: the old parent still lists us in its copyset with
		// oldOwned, but our subtree is now accounted for by the granter
		// (the granted mode always dominates oldOwned — Rule 2 only sends
		// a request when the owned mode does not cover it, and it cannot
		// grow while the request is pending). Without this, the stale
		// entry would inflate the old parent's owned mode forever.
		e.sendRelease(oldParent, modes.None, out)
	}
	e.serveLocalQueue(out)
	e.pushFrozenViews(out)
	return nil
}

// sendRelease emits a release/detach message reporting owned mode mo to
// the given node, acknowledging the latest grant received from it. The
// message carries the trace of the operation that caused the weakening.
func (e *Engine) sendRelease(to proto.NodeID, mo modes.Mode, out *Out) {
	out.send(proto.Message{
		Kind: proto.KindRelease, Lock: e.lock,
		From: e.self, To: to, TS: e.clock.Tick(),
		Owned: mo, Seq: e.grantSeqIn[to], Trace: e.cause,
		Epoch: e.epoch,
	})
}

// handleToken makes this node the new root (operational spec of Rule 3.2,
// footnotes b and c).
func (e *Engine) handleToken(msg *proto.Message, out *Out) error {
	if e.pending == modes.None {
		return fmt.Errorf("%w: token with no pending request at node %d", ErrProtocol, e.self)
	}
	if msg.Mode != e.pending {
		return fmt.Errorf("%w: token grants %v but pending %v", ErrProtocol, msg.Mode, e.pending)
	}
	oldParent := e.parent
	oldOwned := e.Owned()
	e.token = true
	e.parent = proto.NoNode
	if msg.Owned != modes.None {
		// Footnote b: the old token still owns a mode, so it joins the new
		// token's copyset as a child.
		e.children[msg.From] = msg.Owned
	}
	if msg.From != oldParent && oldOwned != modes.None {
		// Detach from the old parent: we are the root now and our subtree
		// no longer reports through it (same reasoning as in handleGrant;
		// when msg.From == oldParent the old token already removed us at
		// transfer time).
		e.sendRelease(oldParent, modes.None, out)
	}
	upgraded := e.held == modes.U && e.pending == modes.W
	e.held = e.pending
	e.pending = modes.None
	if upgraded {
		out.event(Event{Kind: EventUpgraded, Mode: e.held, Trace: msg.Trace})
	} else {
		out.event(Event{Kind: EventAcquired, Mode: e.held, Trace: msg.Trace})
	}
	// Footnote c: merge the travelling queue with the local one,
	// preserving queue order. Requests in the travelling queue reached
	// the token earlier than anything queued here under Tab. 2(a) could
	// have, so within a priority level they keep their positions ahead of
	// the local queue; across levels, priority order prevails.
	e.queue = mergeQueues(msg.Queue, e.queue)
	e.serveQueue(out)
	return nil
}

// handleRelease processes a child's owned-mode weakening (Rule 5).
func (e *Engine) handleRelease(msg *proto.Message, out *Out) error {
	if _, ok := e.children[msg.From]; !ok {
		// Stale: the release crossed a token transfer to that node (we
		// removed it from the copyset when handing over the token, and it
		// is the root of its own accounting now). Ignore.
		return nil
	}
	prev := e.Owned()
	reported := msg.Owned
	if msg.Seq < e.grantSeqOut[msg.From] {
		// The release was sent before the child saw our latest grant, so
		// its reported owned mode excludes it. Fold the granted mode back
		// in; the child will report again once it actually weakens below
		// it. Never delete the child here.
		reported = modes.Max(reported, e.grantModeOut[msg.From])
	}
	if reported == modes.None {
		delete(e.children, msg.From)
		delete(e.sentFrozen, msg.From)
	} else {
		e.children[msg.From] = reported
	}
	if e.token {
		e.serveQueue(out)
		return nil
	}
	e.afterWeaken(prev, out)
	return nil
}

// handleFreeze installs the parent's frozen view and propagates it
// (Rule 6 operational spec). Freezes that raced with a token transfer or
// a reparenting grant are stale and ignored: the token derives its own
// frozen set, and only the current parent's view is authoritative.
func (e *Engine) handleFreeze(msg *proto.Message, out *Out) error {
	if e.token || msg.From != e.parent {
		return nil
	}
	e.frozen = msg.Frozen
	e.pushFrozenViews(out)
	// Thawed modes may make queued requests grantable again.
	e.serveLocalQueue(out)
	return nil
}

// afterWeaken runs at a non-token node (or on unlock) after held/children
// changed: notify the parent if the owned mode weakened (Rule 5.2) and
// reconsider the local queue.
func (e *Engine) afterWeaken(prevOwned modes.Mode, out *Out) {
	if e.token {
		e.serveQueue(out)
		return
	}
	if mo := e.Owned(); mo != prevOwned {
		e.sendRelease(e.parent, mo, out)
	}
	e.serveLocalQueue(out)
}

// enqueue inserts a request: queues are ordered by priority (higher
// first) and FIFO in arrival order within a priority level. At the
// default priority 0 this is plain arrival order — the order the paper's
// freezing rule protects ("the token node, after receiving {D,R}, will
// not grant any other requests…").
func (e *Engine) enqueue(req proto.Request) {
	// Recovery dedup: after a regeneration round, origins re-issue their
	// outstanding requests with the original trace ID. If the original
	// made it into this queue (directly or via a travelling token queue)
	// before the re-issue arrives, the second copy must not double-grant.
	if !req.Trace.IsZero() {
		for _, q := range e.queue {
			if q.Origin == req.Origin && q.Trace == req.Trace {
				return
			}
		}
	}
	i := len(e.queue)
	for i > 0 && e.queue[i-1].Priority < req.Priority {
		i--
	}
	e.queue = append(e.queue, proto.Request{})
	copy(e.queue[i+1:], e.queue[i:])
	e.queue[i] = req
}

// grantCopy grants req as a copy: the requester becomes (or remains) a
// child of this node with the granted mode folded into its owned mode.
func (e *Engine) grantCopy(req proto.Request, out *Out) {
	cm := modes.Max(e.children[req.Origin], req.Mode)
	e.children[req.Origin] = cm
	e.grantSeqOut[req.Origin]++
	e.grantModeOut[req.Origin] = req.Mode
	view := e.frozenViewFor(cm)
	e.sentFrozen[req.Origin] = view
	out.send(proto.Message{
		Kind: proto.KindGrant, Lock: e.lock,
		From: e.self, To: req.Origin, TS: e.clock.Tick(),
		Mode: req.Mode, Frozen: view, Seq: e.grantSeqOut[req.Origin],
		Trace: req.Trace, Epoch: e.epoch,
	})
}

// transferToken hands the token (and the remaining queue) to req.Origin,
// which becomes the new root; this node becomes its child if it still
// owns a mode (Rule 3.2 operational spec, footnotes b, c).
func (e *Engine) transferToken(req proto.Request, out *Out) {
	delete(e.children, req.Origin)
	delete(e.sentFrozen, req.Origin)
	q := e.queue
	e.queue = nil
	e.token = false
	e.parent = req.Origin
	out.send(proto.Message{
		Kind: proto.KindToken, Lock: e.lock,
		From: e.self, To: req.Origin, TS: e.clock.Tick(),
		Mode: req.Mode, Owned: e.Owned(), Queue: q, Trace: req.Trace,
		Epoch: e.epoch,
	})
}

// serveQueue is the token node's queue scan ("check requests on queue").
// The head is served as soon as it is compatible with the owned mode —
// frozen modes do not apply to the request they protect. Requests behind
// the head are served only if their mode is unfrozen, which guarantees
// they overtake no conflicting earlier request. After the scan the frozen
// set is recomputed from what remains queued and pushed to granters.
func (e *Engine) serveQueue(out *Out) {
	if !e.token {
		return
	}
	for {
		served := false
		for i := 0; i < len(e.queue); i++ {
			req := e.queue[i]
			head := i == 0
			if req.Origin == e.self {
				if modes.Compatible(e.ownedChildren(), req.Mode) && (head || !e.frozen.Has(req.Mode)) {
					upgraded := e.held == modes.U && req.Mode == modes.W
					e.held = req.Mode
					e.pending = modes.None
					kind := EventAcquired
					if upgraded {
						kind = EventUpgraded
					}
					out.event(Event{Kind: kind, Mode: req.Mode, Local: true, Trace: req.Trace})
					e.removeQueued(i)
					served = true
					break
				}
				continue
			}
			switch modes.GrantAtToken(e.Owned(), req.Mode) {
			case modes.TokenCopy:
				if head || !e.frozen.Has(req.Mode) {
					e.grantCopy(req, out)
					e.removeQueued(i)
					served = true
				}
			case modes.TokenTransfer:
				if head || !e.frozen.Has(req.Mode) {
					e.removeQueued(i)
					e.transferToken(req, out)
					return // no longer the token node
				}
			case modes.TokenBlocked:
			}
			if served {
				break
			}
		}
		if !served {
			break
		}
	}
	e.refreshFrozen(out)
}

func (e *Engine) removeQueued(i int) {
	e.queue = append(e.queue[:i], e.queue[i+1:]...)
}

// mergeQueues stably merges two priority-ordered queues, preferring
// entries of a (the travelling queue) on equal priority.
func mergeQueues(a, b []proto.Request) []proto.Request {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]proto.Request, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Priority > a[i].Priority {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// serveLocalQueue drains a non-token node's local queue: grant what the
// owned mode covers, keep what Tab. 2(a) still justifies queuing, forward
// the rest (Rules 3.1, 4.1).
func (e *Engine) serveLocalQueue(out *Out) {
	if e.token {
		e.serveQueue(out)
		return
	}
	kept := e.queue[:0]
	for _, req := range e.queue {
		switch {
		case req.Origin == e.self:
			// Deferred local acquire (see Acquire): complete it when the
			// thaw arrives, keep waiting while the owned mode still
			// covers it, or fall back to a real request if the owned mode
			// weakened below the wanted one in the meantime.
			mo := e.Owned()
			covered := mo != modes.None && modes.Compatible(mo, req.Mode) && modes.AtLeast(mo, req.Mode)
			switch {
			case covered && !e.frozen.Has(req.Mode):
				e.held = req.Mode
				e.pending = modes.None
				out.event(Event{Kind: EventAcquired, Mode: req.Mode, Local: true, Trace: req.Trace})
			case covered:
				kept = append(kept, req)
			default:
				out.send(proto.Message{
					Kind: proto.KindRequest, Lock: e.lock,
					From: e.self, To: e.parent, TS: e.clock.Tick(), Req: req, Trace: req.Trace,
					Epoch: e.epoch,
				})
			}
		case !e.opt.NoChildGrants &&
			modes.GrantableByCopy(e.Owned(), req.Mode) && !e.frozen.Has(req.Mode):
			e.grantCopy(req, out)
		case !e.opt.NoLocalQueues && e.pending != modes.None &&
			(!e.opt.NoPathReversal || modes.ShouldQueue(e.pending, req.Mode)):
			kept = append(kept, req)
		default:
			out.send(proto.Message{
				Kind: proto.KindRequest, Lock: e.lock,
				From: e.self, To: e.parent, TS: e.clock.Tick(), Req: req, Trace: req.Trace,
				Epoch: e.epoch,
			})
		}
	}
	e.queue = kept
}

// refreshFrozen recomputes the token's frozen set (Tab. 2b) and pushes
// changed per-child views. Only the queue head is protected: it is the
// request FIFO order serves next, and freezing exactly its conflicters is
// what the paper's worked example does ("IW is the modes to be frozen"
// for the single waiting R). Requests behind the head inherit protection
// when they reach the head, so nothing starves, while the frozen set
// stays small and stable (fewer freeze messages, more concurrency).
func (e *Engine) refreshFrozen(out *Out) {
	if !e.token || e.opt.NoFreezing {
		return
	}
	var fz modes.Set
	if len(e.queue) > 0 {
		fz = modes.FreezeSet(e.Owned(), e.queue[0].Mode)
	}
	e.frozen = fz
	e.pushFrozenViews(out)
}

// frozenViewFor restricts the node's frozen set to the modes a child
// owning cm could actually grant (paper footnote a).
func (e *Engine) frozenViewFor(cm modes.Mode) modes.Set {
	var view modes.Set
	for _, m := range e.frozen.Modes() {
		if modes.GrantableByCopy(cm, m) {
			view = view.Add(m)
		}
	}
	return view
}

// pushFrozenViews sends each child its (deduplicated) frozen view, in
// child-ID order — deterministic emission keeps whole simulations
// reproducible (map iteration order would leak into message timing).
func (e *Engine) pushFrozenViews(out *Out) {
	if e.opt.NoFreezing || len(e.children) == 0 {
		return
	}
	ids := make([]int, 0, len(e.children))
	for c := range e.children {
		ids = append(ids, int(c))
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := proto.NodeID(id)
		view := e.frozenViewFor(e.children[c])
		if e.sentFrozen[c] == view {
			continue
		}
		e.sentFrozen[c] = view
		out.send(proto.Message{
			Kind: proto.KindFreeze, Lock: e.lock,
			From: e.self, To: c, TS: e.clock.Tick(), Frozen: view,
			Trace: e.cause, Epoch: e.epoch,
		})
	}
}

// PrepareReseed fences the engine for a recovery round at the proposed
// epoch: from this call until Reseed, the engine drops every message,
// completes no local operations, and lets held only weaken to None — so
// the held mode the caller reports in its recovery claim stays an upper
// bound on reality, which is what makes the regenerator's copyset
// reconstruction exact. Idempotent for re-probes at the same or a higher
// epoch.
func (e *Engine) PrepareReseed(epoch uint32) {
	e.fenced = true
	if epoch > e.epoch {
		e.epoch = epoch
	}
}

// Reseed installs the outcome of a completed token-regeneration round:
// root holds the regenerated token for the new epoch, and this node's
// pre-round state is rebuilt around it. accounted is the held mode this
// node's claim reported to the regenerator (None when it did not
// participate — e.g. it restarted mid-round and is catching up from a
// recovery hint); copyset is meaningful only at the root and lists the
// surviving holders' accounted modes (excluding the root itself).
//
// All routing and queue state from the old epoch is demolished — parent
// chains through the dead node, queued requests whose origins will
// re-issue them, frozen views, grant sequencing. What survives is the
// local truth: the held mode (the critical section does not notice
// recovery) and the pending request, which is re-issued to the new root
// under the original trace ID so duplicates collapse.
//
// The returned lost flag reports that this node held a mode the round
// did not account for (held ≠ accounted ≠ held==None): its critical
// section is no longer protected — the regenerated token may have
// granted conflicting modes — so the hold is dropped and the host must
// surface the loss to the client (ErrLockLost).
func (e *Engine) Reseed(root proto.NodeID, epoch uint32, accounted modes.Mode, copyset []proto.Request) (Out, bool) {
	out := Out{}
	e.fenced = false
	e.epoch = epoch
	e.cause = proto.TraceID{}
	e.queue = nil
	e.frozen = 0
	clear(e.children)
	clear(e.sentFrozen)
	clear(e.grantSeqOut)
	clear(e.grantModeOut)
	clear(e.grantSeqIn)

	lost := false
	if e.held != modes.None && e.held != accounted {
		// The round closed without this hold in its accounting; the new
		// token world may already conflict with it.
		e.held = modes.None
		lost = true
	}

	if root == e.self {
		e.token = true
		e.parent = proto.NoNode
		for _, c := range copyset {
			if c.Origin != e.self && c.Mode != modes.None {
				e.children[c.Origin] = c.Mode
			}
		}
		if e.pending != modes.None {
			e.enqueue(e.pendingReq)
		}
		e.serveQueue(&out)
		return out, lost
	}

	e.token = false
	e.parent = root
	if e.held == modes.None && accounted != modes.None {
		// This node released (or lost) its hold between claiming and the
		// round closing; the root installed accounted in its copyset, so
		// send the weakening release the fence swallowed.
		e.sendRelease(root, modes.None, &out)
	}
	if e.pending != modes.None {
		// Re-issue the outstanding request to the new root. The original
		// trace ID rides along: if the pre-crash request survived into the
		// regenerated queue, the enqueue dedup collapses the pair.
		req := e.pendingReq
		out.send(proto.Message{
			Kind: proto.KindRequest, Lock: e.lock,
			From: e.self, To: root, TS: e.clock.Tick(), Req: req, Trace: req.Trace,
			Epoch: e.epoch,
		})
	}
	return out, lost
}
