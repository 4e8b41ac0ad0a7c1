// Package audit is an online protocol invariant checker. An Auditor
// consumes the event/trace stream (install it as a trace.Recorder tap,
// or feed it entries directly) and continuously verifies the safety
// properties the hierarchical locking protocol promises:
//
//   - mutual_exclusion — all concurrently granted modes on one lock are
//     pairwise compatible under Tab. 1(a) of Desai & Mueller.
//   - token_conservation — each lock has at most one token per recovery
//     epoch: only the holder may send it, and it is never duplicated
//     while in flight. Epoch 0 is the initial world (the configured root
//     holds every token); each regeneration round opens a fresh epoch
//     whose token springs into existence at the recovered root announced
//     by the round's Recovered broadcast. Stale pre-crash traffic is
//     checked against its own epoch's state, never the new world's.
//   - copyset_release — a node only sends a release to a plausible
//     parent: the initial tree root, a node that previously granted it a
//     copy or the token, or the origin of a request it forwarded (path
//     reversal repoints the parent at that origin, Rule 3.2).
//   - freeze_fifo — freeze (and all other) messages on an ordered link
//     are delivered in send order with the same (kind, lock, mode)
//     signature, the FIFO assumption Rule 6's frozen-set push relies on.
//
// The auditor is stream-tolerant: a single live node only observes its
// own sends and deliveries, so every check fires only on evidence of a
// definite violation, never on gaps. Merged cluster-wide streams (the
// simulator, or /debug/trace peer merges) get the full-strength checks.
//
// A live member hands in its client operations a batch at a time (see
// trace.Recorder.Admit), so streams merged from several members arrive in
// per-lock causal order, not in time order: what a node did with a lock
// arrives before any message it then sent about it, and two grants no
// message separates arrive either way round. The mutual exclusion check
// therefore compares holds as intervals of the entries' own stamps.
//
// Violations increment hierlock_audit_violations_total{invariant=...} in
// the attached metrics registry and are retained (bounded) for the
// /debug/audit endpoint.
package audit

import (
	"fmt"
	"math"
	"sync"
	"time"

	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// Invariant names (the metric's label values and the Report keys).
const (
	InvMutualExclusion   = "mutual_exclusion"
	InvTokenConservation = "token_conservation"
	InvCopysetRelease    = "copyset_release"
	InvFreezeFIFO        = "freeze_fifo"
)

// Invariants lists all invariant names, in reporting order.
var Invariants = []string{
	InvMutualExclusion, InvTokenConservation, InvCopysetRelease, InvFreezeFIFO,
}

// Violation is one detected invariant breach.
type Violation struct {
	Invariant string        `json:"invariant"`
	Lock      proto.LockID  `json:"lock"`
	At        time.Duration `json:"at_us"`
	Detail    string        `json:"detail"`
}

// Config parameterizes an Auditor.
type Config struct {
	// Registry receives hierlock_audit_* counters (nil: metrics off).
	Registry *metrics.Registry
	// Root is the node that initially holds every lock's token (the tree
	// root), used to seed token tracking and to accept releases sent to
	// the initial parent. Defaults to node 0; set to proto.NoNode if the
	// initial root is unknown (token tracking then starts on the first
	// observed token event).
	Root proto.NodeID
	// MaxViolations bounds the retained violation list (default 256).
	// The counters keep counting past the bound.
	MaxViolations int
	// MaxLinkBacklog bounds the per-link send memory of the FIFO check
	// (default 4096). A link whose backlog overflows (e.g. a live node
	// that sees its own sends but never the peer's deliveries) stops
	// being checked rather than reporting false violations.
	MaxLinkBacklog int
	// OnViolation, when non-nil, observes every flagged violation
	// (including ones past MaxViolations). Called with the auditor's
	// internal mutexes held, inside the trace recorder's tap — so also with
	// the mutex of the producer admitting the batch, and with Registry's
	// read lock when a scrape pulled the batch in. It must not block, call
	// back into the Auditor, or read Registry, the trace ring or anything
	// else that pulls from producers. Hosts use it to trigger an incident
	// (introspect.Recorder.TriggerDump pulls nothing) the moment an
	// invariant breaks.
	OnViolation func(Violation)
}

type linkKey struct {
	from, to proto.NodeID
}

type msgSig struct {
	kind proto.Kind
	lock proto.LockID
	mode modes.Mode
}

// tokenState tracks one (lock, epoch)'s token location.
type tokenState struct {
	holder   proto.NodeID // current holder, or NoNode when in flight/unknown
	inFlight bool
	from, to proto.NodeID // transfer endpoints while in flight
	known    bool         // false until the first token observation
}

// holder is one node's hold on a lock: mode, held over [from, to), to
// being stillHeld until the release is seen. A released hold stays as the
// node's last finished one, so that a conflicting grant another member's
// batch hands in afterwards is still caught.
type holder struct {
	node     proto.NodeID
	mode     modes.Mode
	from, to time.Duration
}

// stillHeld is the end of a hold nobody has released: later than any stamp.
const stillHeld = time.Duration(math.MaxInt64)

type lockState struct {
	// holders lists each node's current or last hold (mutual exclusion
	// check). A slice, not a map: a lock has a handful of holders at most
	// and every client operation walks it.
	holders []holder
	// parents: node → set of plausible release targets — nodes that
	// granted it a copy or the token, plus origins of requests it
	// forwarded (path reversal makes the origin the new parent) and the
	// regenerated root of any recovery round it was reseeded by.
	parents map[proto.NodeID]map[proto.NodeID]bool
	// tokens: recovery epoch → that epoch's token state. Epoch 0 is
	// seeded at the configured root; higher epochs start unknown and are
	// learned from the first Recovered broadcast (or token event) seen
	// at that epoch.
	tokens map[uint32]*tokenState
}

type linkState struct {
	sends []msgSig
	lossy bool // backlog overflowed; strict matching abandoned
}

// stripeCount is the number of stripes the per-lock ledgers are spread
// over, by lock ID: entries for locks in different stripes are checked
// in parallel.
const stripeCount = 16

// stripe holds the ledgers of the locks that hash to it. It is padded to
// its own cache lines so neighbouring stripes' mutexes do not share one.
type stripe struct {
	mu    sync.Mutex
	locks map[proto.LockID]*lockState
	// lastID/last memoise the ledger most recently looked up: a client
	// cycling a lock touches the same one twice per operation.
	lastID proto.LockID
	last   *lockState
	_      [64]byte
}

// Auditor consumes trace entries and checks protocol invariants. Safe
// for concurrent use; a nil Auditor ignores everything.
//
// State is split by what an entry touches. Grants, releases and the
// token/copyset ledger of a message belong to one lock and live in that
// lock's stripe; the link FIFO check spans locks and has its own mutex,
// taken only for message entries; the violation list has a third, taken
// only when an invariant breaks. The lock order is a stripe mutex, then
// linkMu, then violMu: Record holds the stripe of a run of entries across
// the link check of each message among them. Every entry is checked before
// Record returns; Snapshot and Violations first pull in what Config.Registry's
// producers have staged, so they answer for every operation that finished
// before they were asked.
type Auditor struct {
	cfg Config

	stripes [stripeCount]stripe

	linkMu sync.Mutex
	links  map[linkKey]*linkState

	// violMu guards the violation counts and the retained list. It is
	// taken last (see the lock order above).
	violMu     sync.Mutex
	counts     map[string]uint64
	violations []Violation

	// entries counts the entries consumed: it is the registry's
	// hierlock_audit_entries_total when there is a registry (the report
	// and the scrape then read the one word Record writes), a private
	// counter otherwise.
	entries    *metrics.Counter
	metricViol map[string]*metrics.Counter
}

// New creates an auditor. Counters for every invariant are registered
// immediately so hierlock_audit_violations_total exposes zeros (the
// healthy state is visible, not absent).
func New(cfg Config) *Auditor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 256
	}
	if cfg.MaxLinkBacklog <= 0 {
		cfg.MaxLinkBacklog = 4096
	}
	a := &Auditor{
		cfg:        cfg,
		links:      make(map[linkKey]*linkState),
		counts:     make(map[string]uint64),
		metricViol: make(map[string]*metrics.Counter),
	}
	for i := range a.stripes {
		a.stripes[i].locks = make(map[proto.LockID]*lockState)
	}
	a.entries = new(metrics.Counter)
	if cfg.Registry != nil {
		a.entries = cfg.Registry.Counter(metrics.MetricAuditEntries,
			"Trace entries consumed by the protocol auditor.", nil)
		for _, inv := range Invariants {
			a.metricViol[inv] = cfg.Registry.Counter(metrics.MetricAuditViolations,
				"Protocol invariant violations flagged by the online auditor.",
				metrics.Labels{"invariant": inv})
		}
	}
	return a
}

// Record consumes a batch of trace entries, in order. It has the
// trace.Recorder tap signature: rec.SetTap(a.Record). The batch is
// counted in one add, and a run of entries whose locks share a stripe is
// checked under one round of its mutex: a member admits a batch from one
// of its own stripes, which maps to one of these.
func (a *Auditor) Record(es []trace.Entry) {
	if a == nil || len(es) == 0 {
		return
	}
	a.entries.Add(uint64(len(es)))
	var st *stripe // the stripe whose mutex is held, if any
	for i := range es {
		e := &es[i]
		switch e.Op {
		case trace.OpGranted, trace.OpRelease, trace.OpSend, trace.OpDeliver:
		default:
			// Every other op (acquires, joins, leaves, the node events) is
			// counted and not examined.
			continue
		}
		if s := &a.stripes[uint(e.Lock)%stripeCount]; s != st {
			if st != nil {
				st.mu.Unlock()
			}
			st = s
			st.mu.Lock()
		}
		ls := st.lock(a, e.Lock)
		switch e.Op {
		case trace.OpGranted:
			a.onGranted(ls, *e)
		case trace.OpRelease:
			ls.release(e.Node, e.At)
		case trace.OpSend:
			a.onSend(ls, *e)
			a.linkMu.Lock()
			a.fifoSend(*e)
			a.linkMu.Unlock()
		case trace.OpDeliver:
			a.onDeliver(ls, *e)
			a.linkMu.Lock()
			a.fifoDeliver(*e)
			a.linkMu.Unlock()
		}
	}
	if st != nil {
		st.mu.Unlock()
	}
}

// lock returns (creating) the ledger of one lock. Callers hold st.mu.
func (st *stripe) lock(a *Auditor, id proto.LockID) *lockState {
	if st.last != nil && st.lastID == id {
		return st.last
	}
	ls := st.locks[id]
	if ls == nil {
		ls = &lockState{
			parents: make(map[proto.NodeID]map[proto.NodeID]bool),
			tokens:  make(map[uint32]*tokenState),
		}
		if a.cfg.Root != proto.NoNode {
			ls.tokens[0] = &tokenState{holder: a.cfg.Root, known: true}
		}
		st.locks[id] = ls
	}
	st.lastID, st.last = id, ls
	return ls
}

// token returns (creating) the token state for one epoch of a lock.
func (ls *lockState) token(epoch uint32) *tokenState {
	t := ls.tokens[epoch]
	if t == nil {
		t = &tokenState{holder: proto.NoNode}
		ls.tokens[epoch] = t
	}
	return t
}

// flag records one violation. Callers hold a stripe mutex, and linkMu for
// a FIFO breach.
func (a *Auditor) flag(inv string, e trace.Entry, format string, args ...any) {
	v := Violation{
		Invariant: inv, Lock: e.Lock, At: e.At,
		Detail: fmt.Sprintf(format, args...),
	}
	a.violMu.Lock()
	defer a.violMu.Unlock()
	a.counts[inv]++
	if c := a.metricViol[inv]; c != nil {
		c.Inc()
	}
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, v)
	}
	if a.cfg.OnViolation != nil {
		a.cfg.OnViolation(v)
	}
}

// onGranted checks Tab. 1(a) compatibility of a grant — open, or a
// finished operation held until e.Released — against every other node's
// hold that overlaps it in time, then installs it. Two open holds always
// overlap.
func (a *Auditor) onGranted(ls *lockState, e trace.Entry) {
	g := holder{node: e.Node, mode: e.Mode, from: e.At, to: e.Released}
	if e.Released == 0 {
		g.to = stillHeld
	}
	self := -1
	for i, h := range ls.holders {
		switch {
		case h.node == e.Node:
			self = i // upgrade, re-grant or the node's last hold
		case modes.Compatible(h.mode, g.mode):
		case g.from < h.to && h.from < g.to:
			a.flag(InvMutualExclusion, e,
				"node %d granted %v while node %d holds %v", e.Node, e.Mode, h.node, h.mode)
		}
	}
	if self < 0 {
		ls.holders = append(ls.holders, g)
		return
	}
	if h := ls.holders[self]; h.to == stillHeld && h.mode == g.mode {
		g.from = h.from // a join: the hold is as old as its first sharer
	}
	ls.holders[self] = g
}

// release closes node's open hold, if it has one, at stamp at.
func (ls *lockState) release(node proto.NodeID, at time.Duration) {
	for i := range ls.holders {
		if h := &ls.holders[i]; h.node == node && h.to == stillHeld {
			h.to = at
			return
		}
	}
}

func (a *Auditor) onSend(ls *lockState, e trace.Entry) {
	switch e.Kind {
	case proto.KindToken:
		t := ls.token(e.Epoch)
		switch {
		case t.inFlight:
			a.flag(InvTokenConservation, e,
				"token sent %d→%d at epoch %d while already in flight %d→%d (duplicated)",
				e.From, e.To, e.Epoch, t.from, t.to)
			// Track the newest transfer so one bug is not reported forever.
			t.from, t.to = e.From, e.To
		case t.known && t.holder != e.From:
			a.flag(InvTokenConservation, e,
				"token sent by node %d at epoch %d but held by node %d", e.From, e.Epoch, t.holder)
			t.inFlight, t.from, t.to = true, e.From, e.To
			t.holder = proto.NoNode
		default:
			t.known = true
			t.inFlight, t.from, t.to = true, e.From, e.To
			t.holder = proto.NoNode
		}
		// Handing the token over repoints the sender's parent at the
		// recipient (the new root): a plausible future release target.
		a.parentEdge(ls, e.From, e.To)
	case proto.KindRecovered:
		a.onRecovered(ls, e, e.From)
	case proto.KindRequest:
		// Forwarding a request repoints the forwarder's parent at the
		// request's origin (path reversal): the origin becomes a plausible
		// future release target. The trace ID carries the origin.
		if !e.Trace.IsZero() && e.Trace.Node != e.From {
			a.parentEdge(ls, e.From, e.Trace.Node)
		}
	case proto.KindRelease:
		// A release must target a plausible parent: the initial root, a
		// node that previously granted e.From a copy or the token, or the
		// origin of a request e.From forwarded. A lone live node knows its
		// own grant deliveries and forwards, so this is exact for its own
		// releases and silent about everyone else's.
		if e.From == e.Node { // only the sender's own record is evidence
			if e.To != a.cfg.Root && !ls.parents[e.From][e.To] {
				a.flag(InvCopysetRelease, e,
					"node %d released to node %d, which never granted to or requested through it",
					e.From, e.To)
			}
		}
	}
}

func (a *Auditor) onDeliver(ls *lockState, e trace.Entry) {
	switch e.Kind {
	case proto.KindToken:
		t := ls.token(e.Epoch)
		// Misrouting is only provable when the tracked transfer itself
		// arrives at the wrong node (same sender, wrong addressee). A
		// mismatch with a *different* sender means unobserved hops sit
		// between the send and this delivery — the normal case on a
		// single node's partial stream (lockd audits only its own ring:
		// it records its token send, never the remote delivery, and the
		// token comes back from whoever held it last), absorbed here by
		// catching the ledger up instead of crying duplication.
		if t.inFlight && t.to != e.To && t.from == e.From {
			a.flag(InvTokenConservation, e,
				"token delivered to node %d at epoch %d but was in flight %d→%d",
				e.To, e.Epoch, t.from, t.to)
		}
		t.known = true
		t.inFlight = false
		t.holder = e.To
		a.parentEdge(ls, e.To, e.From)
	case proto.KindGrant:
		a.parentEdge(ls, e.To, e.From)
	case proto.KindRecovered:
		a.onRecovered(ls, e, e.To)
	}
}

// onRecovered digests a regeneration-round outcome observed at node
// (the sender on OpSend, the receiver on OpDeliver). The entry's trace
// node carries the regenerated root: the node is reseeded with the root
// as its parent (a plausible release target from now on), and the
// round's epoch has its token seeded at the root — the "exactly one
// token per epoch" ledger opens with the regenerated token, so a second,
// conflicting regeneration at the same epoch is flagged like any other
// duplication. Late hints for an epoch whose token already moved on are
// absorbed by normal transfer tracking (seeding only happens on the
// first observation).
func (a *Auditor) onRecovered(ls *lockState, e trace.Entry, node proto.NodeID) {
	root := e.Trace.Node
	a.parentEdge(ls, node, root)
	t := ls.token(e.Epoch)
	if !t.known {
		t.known = true
		t.holder = root
	}
}

// parentEdge records that granter is a plausible release target for node
// (copyset membership / path-reversal parent for the pairing check).
func (a *Auditor) parentEdge(ls *lockState, node, granter proto.NodeID) {
	g := ls.parents[node]
	if g == nil {
		g = make(map[proto.NodeID]bool)
		ls.parents[node] = g
	}
	g[granter] = true
}

// fifoSend/fifoDeliver implement the online FIFO check: the i-th
// delivery on an ordered link must carry the i-th send's signature.
// Delivers with no retained send (live single-node streams) are skipped;
// links whose send backlog overflows go lossy instead of lying. Callers
// hold linkMu.
func (a *Auditor) fifoSend(e trace.Entry) {
	l := a.link(e)
	if l.lossy {
		return
	}
	if len(l.sends) >= a.cfg.MaxLinkBacklog {
		l.lossy = true
		l.sends = nil
		return
	}
	l.sends = append(l.sends, msgSig{e.Kind, e.Lock, e.Mode})
}

func (a *Auditor) fifoDeliver(e trace.Entry) {
	l := a.link(e)
	if l.lossy || len(l.sends) == 0 {
		return
	}
	want := l.sends[0]
	l.sends = l.sends[1:]
	got := msgSig{e.Kind, e.Lock, e.Mode}
	if got != want {
		a.flag(InvFreezeFIFO, e,
			"link %d→%d: delivered %v/%d/%v, next send was %v/%d/%v",
			e.From, e.To, got.kind, got.lock, got.mode, want.kind, want.lock, want.mode)
	}
}

func (a *Auditor) link(e trace.Entry) *linkState {
	k := linkKey{e.From, e.To}
	l := a.links[k]
	if l == nil {
		l = &linkState{}
		a.links[k] = l
	}
	return l
}

// Report is the auditor's JSON snapshot, served at /debug/audit.
type Report struct {
	Entries    uint64            `json:"entries"`
	Total      uint64            `json:"violations_total"`
	ByCheck    map[string]uint64 `json:"violations"`
	Violations []Violation       `json:"recent"`
}

// Snapshot returns the current audit state. Nil-safe.
func (a *Auditor) Snapshot() Report {
	rep := Report{ByCheck: make(map[string]uint64, len(Invariants))}
	if a == nil {
		for _, inv := range Invariants {
			rep.ByCheck[inv] = 0
		}
		return rep
	}
	// Value pulls in what the registry's producers hold back, and with it
	// any violation among those entries, before the list is read.
	rep.Entries = a.entries.Value()
	a.violMu.Lock()
	defer a.violMu.Unlock()
	for _, inv := range Invariants {
		rep.ByCheck[inv] = a.counts[inv]
		rep.Total += a.counts[inv]
	}
	rep.Violations = append([]Violation(nil), a.violations...)
	return rep
}

// Violations returns the total violation count across all invariants.
func (a *Auditor) Violations() uint64 {
	if a == nil {
		return 0
	}
	a.cfg.Registry.Pull()
	a.violMu.Lock()
	defer a.violMu.Unlock()
	var n uint64
	for _, c := range a.counts {
		n += c
	}
	return n
}
