// Package recovery implements crash recovery for the token-based locking
// protocols: confirmed loss of a node triggers an epoch-stamped token
// regeneration round that rebuilds each lock's world from the survivors'
// accounted state.
//
// The paper's protocols (internal/hlock, internal/naimi) assume a
// reliable, crash-free system: the token exists exactly once, probable-
// owner chains always terminate, and queued requests are eventually
// served. A fail-stop crash that destroys a node's memory breaks all
// three — a crashed token holder wedges its locks forever. This package
// restores them for internal/hlock, the engine the runtime ships (the
// Naimi baseline stays crash-free, as in the paper's evaluation),
// without touching the failure-free fast path:
//
//  1. A failure detector (Detector, fed by the live transport) confirms
//     a peer dead after a conservative silence threshold and tells the
//     Manager.
//
//  2. The surviving node with the lowest ID becomes the regenerator. It
//     runs one round per known lock: a Probe broadcast carrying a
//     proposed epoch (higher than any it has seen) fences every
//     survivor's engine — from the claim until the round closes, the
//     engine drops all traffic and completes no operations, so the state
//     it claims cannot drift. Each survivor answers with a Claim
//     reporting its held mode, whether it has the token, and its own
//     epoch.
//
//  3. With all claims in, the regenerator fixes the final epoch above
//     every claimed epoch, picks the new root — the strongest surviving
//     holder, then any token claimant, then itself — and broadcasts
//     Recovered. Each receiver reseeds its engine: routing and queue
//     state from the old world is demolished, the root regenerates the
//     token with the surviving holders installed as its copyset, and
//     nodes with an outstanding request re-issue it to the root under
//     the original trace ID, so a request that also survived inside a
//     travelling queue deduplicates instead of double-granting.
//
// Epochs fence the old world out: every protocol message carries the
// sender's epoch (wire format v3) and engines drop mismatches, so a
// pre-crash token frame that limps in late cannot resurrect a stale
// grant. A node that was down during the round (and therefore claims
// nothing) catches up from a recovery hint; any hold it still thinks it
// has was not accounted for and is surfaced to its client as lost.
package recovery

import (
	"sort"
	"sync"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// State is a node's accountable per-lock engine state, captured for a
// recovery claim before the engine is fenced.
type State struct {
	// Epoch is the engine's current recovery epoch.
	Epoch uint32
	// Held is the mode the node currently holds (None outside critical
	// sections; exclusive-only protocols report W).
	Held modes.Mode
	// Token reports whether the node holds the lock's token.
	Token bool
}

// Seed is the outcome of a completed regeneration round for one lock:
// the regenerated root and the round's final epoch. Hosts consult the
// manager's SeedFor when lazily creating engines so post-recovery locks
// spring into existence in the recovered world, not the initial one.
type Seed struct {
	Root  proto.NodeID
	Epoch uint32
}

// EncodeClaimSeq packs a claimant's own epoch and token bit into the
// Seq field of a Claim message.
func EncodeClaimSeq(epoch uint32, token bool) uint64 {
	s := uint64(epoch) << 1
	if token {
		s |= 1
	}
	return s
}

// DecodeClaimSeq unpacks EncodeClaimSeq.
func DecodeClaimSeq(s uint64) (epoch uint32, token bool) {
	return uint32(s >> 1), s&1 == 1
}

// coldClaimBit marks a nomination sent by a journal-restored member
// during cold start: no death has been confirmed anywhere, but the
// sender's replayed state must be reconciled into a fresh epoch. The
// bit rides in Seq far above the epoch payload, so DecodeClaimSeq on
// old receivers is unaffected (uint32 truncation discards it).
const coldClaimBit = uint64(1) << 63

// IsColdClaim reports whether a claim's Seq carries the cold-start
// nomination marker.
func IsColdClaim(seq uint64) bool { return seq&coldClaimBit != 0 }

// departClaimBit marks a nomination triggered by processing a peer's
// graceful LEAVE; bits 33–48 carry the leaver's ID. The context lets
// the regenerator tell a redundant nomination — it processed the same
// LEAVE itself and already regenerated the lock among the survivors —
// from one covering a LEAVE it never received. Without it, any
// survivor whose copy of the LEAVE arrives after the depart round's
// Recovered nominates at exactly the seed epoch, which reads as a
// fresh event and forces a second, redundant round whose reseed races
// grants issued under the first. Like coldClaimBit, the payload rides
// above the epoch bits, so DecodeClaimSeq is unaffected.
const (
	departClaimBit    = uint64(1) << 62
	departLeaverShift = 33
)

// encodeDepartClaim stamps a claim Seq as a departure nomination for
// leaver. Node IDs are small dense integers; 16 bits is generous.
func encodeDepartClaim(seq uint64, leaver proto.NodeID) uint64 {
	return seq | departClaimBit | uint64(uint16(leaver))<<departLeaverShift
}

// departClaimLeaver extracts the departing peer from a departure-marked
// nomination, reporting false for every other claim.
func departClaimLeaver(seq uint64) (proto.NodeID, bool) {
	if seq&departClaimBit == 0 {
		return proto.NoNode, false
	}
	return proto.NodeID(uint16(seq >> departLeaverShift)), true
}

// Config wires a Manager to its host (the member runtime, or a test
// harness). Every field is required. All callbacks are invoked
// synchronously from Manager methods; they must not call back into the
// Manager except for SeedFor and Hint, which use separate internal
// locking exactly so that lazy engine creation inside State or Reseed
// can consult them. There is no quorum setting: a round commits on a
// majority of the manager's own node set (quorumMet).
type Config struct {
	// Self is the node this manager runs on.
	Self proto.NodeID
	// Nodes lists all cluster members, including Self.
	Nodes []proto.NodeID
	// Send transmits one protocol message (best-effort; recovery rounds
	// retry every probeTimeout).
	Send func(proto.Message)
	// Locks returns the locks this node currently tracks state for. The
	// regenerator runs a round per tracked lock; survivors nominate
	// their own tracked locks with unsolicited claims, so the union of
	// all survivors' lock sets is regenerated.
	Locks func() []proto.LockID
	// State captures the accountable engine state for a lock (creating
	// the engine lazily if the host does so).
	State func(proto.LockID) State
	// PrepareReseed fences the lock's engine for a round at the proposed
	// epoch (see hlock.Engine.PrepareReseed).
	PrepareReseed func(lock proto.LockID, epoch uint32)
	// Reseed installs a completed round's outcome into the lock's
	// engine: root regenerated the token at epoch; accounted is the held
	// mode this node's claim reported (None for non-participants);
	// copyset (root only) lists the other surviving holders. The host
	// dispatches the engine's resulting messages and surfaces lost holds
	// to clients.
	Reseed func(lock proto.LockID, root proto.NodeID, epoch uint32, accounted modes.Mode, copyset []proto.Request)
	// Clock is the node's Lamport clock, shared with its engines.
	Clock *proto.Clock
	// After schedules fn after d (a timer, or a test's fake): the
	// regenerator's probe retries and a survivor's renominations.
	After func(d time.Duration, fn func())
	// LocksReferencing returns locks whose probable-owner chain passes
	// through the given node (engine parent/copyset/queue references,
	// journal records naming it as root). ConfirmDead regenerates these
	// eagerly in addition to the locks the node tracks live engines for,
	// so a lock whose only referent was the dead node does not stay
	// wedged until a client stumbles into it.
	LocksReferencing func(proto.NodeID) []proto.LockID
	// OnRoundStart observes each regeneration round this node begins as
	// regenerator, with the proposed epoch. Invoked synchronously like
	// every other callback; hosts use it to stamp round-duration metrics.
	OnRoundStart func(lock proto.LockID, proposed uint32)
	// OnRoundDone observes each round this node commits (rounds yielded
	// to a higher-ID regenerator are not reported), with the final epoch.
	OnRoundDone func(lock proto.LockID, final uint32)
}

// probeTimeout is the regenerator's re-probe interval for survivors that
// have not claimed, and a survivor's renomination interval.
const probeTimeout = time.Second

type claim struct {
	held  modes.Mode
	epoch uint32
	token bool
}

type round struct {
	lock     proto.LockID
	proposed uint32
	self     claim
	expected map[proto.NodeID]bool
	claims   map[proto.NodeID]claim
}

// Manager runs the recovery protocol for one node. Methods other than
// SeedFor, Hint and Table must be externally serialized with each other
// and with the host's engine access (the member runtime's recovery
// mutex, or a test's single goroutine); SeedFor/Hint/Table are safe
// to call concurrently, including from inside Config callbacks.
type Manager struct {
	cfg   Config
	nodes []proto.NodeID // sorted
	dead  map[proto.NodeID]bool
	round map[proto.LockID]*round
	// pending buffers nominations (unsolicited claims) that arrived
	// before the local detector confirmed any death — detectors across
	// nodes skew by up to a heartbeat period while the claims arrive in
	// milliseconds, so this race is common. ConfirmDead replays them;
	// per lock the highest nominated epoch is kept.
	pending map[proto.LockID]uint32

	tableMu sync.RWMutex
	table   map[proto.LockID]Seed

	rounds uint64 // completed regeneration rounds (stat)

	// epochFloor lower-bounds the proposed epoch of every round this node
	// starts (see SetEpochFloor; a joiner must never propose at or below
	// an epoch the cluster has already burned).
	epochFloor uint32
}

// NewManager creates the manager. The configured node set changes only
// through the membership methods (AddNode, RemoveNode, Depart).
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:     cfg,
		nodes:   append([]proto.NodeID(nil), cfg.Nodes...),
		dead:    make(map[proto.NodeID]bool),
		round:   make(map[proto.LockID]*round),
		pending: make(map[proto.LockID]uint32),
		table:   make(map[proto.LockID]Seed),
	}
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i] < m.nodes[j] })
	return m
}

// Rounds returns how many regeneration rounds this node has completed
// as regenerator.
func (m *Manager) Rounds() uint64 { return m.rounds }

// Dead reports whether the manager currently considers peer dead.
func (m *Manager) Dead(peer proto.NodeID) bool { return m.dead[peer] }

// SeedFor returns the recovered world for a lock, if any round has
// completed for it. Safe for concurrent use.
func (m *Manager) SeedFor(lock proto.LockID) (Seed, bool) {
	m.tableMu.RLock()
	defer m.tableMu.RUnlock()
	s, ok := m.table[lock]
	return s, ok
}

// Table returns a snapshot of all completed-round outcomes. Safe for
// concurrent use.
func (m *Manager) Table() map[proto.LockID]Seed {
	m.tableMu.RLock()
	defer m.tableMu.RUnlock()
	out := make(map[proto.LockID]Seed, len(m.table))
	for k, v := range m.table {
		out[k] = v
	}
	return out
}

func (m *Manager) setSeed(lock proto.LockID, s Seed) {
	m.tableMu.Lock()
	m.table[lock] = s
	m.tableMu.Unlock()
}

// regenerator returns the lowest-ID node not confirmed dead.
func (m *Manager) regenerator() proto.NodeID {
	for _, n := range m.nodes {
		if !m.dead[n] {
			return n
		}
	}
	return m.cfg.Self
}

// isConfigured reports whether n is in the configured node set (dead
// or alive — a gracefully departed node is not).
func (m *Manager) isConfigured(n proto.NodeID) bool {
	for _, node := range m.nodes {
		if node == n {
			return true
		}
	}
	return false
}

// sortedLocks returns the tracked locks in ascending order for
// deterministic round and message ordering.
func (m *Manager) sortedLocks() []proto.LockID {
	locks := append([]proto.LockID(nil), m.cfg.Locks()...)
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	return locks
}

// deadLocks returns every lock whose recovery depends on the dead
// node beyond the live tracked set: completed-round seeds naming it as
// root (survivors may have evicted their engines for those locks since,
// so Locks() no longer reports them) plus whatever the host's
// LocksReferencing scan finds (engine chains, journal records).
func (m *Manager) deadLocks(peer proto.NodeID) []proto.LockID {
	var out []proto.LockID
	m.tableMu.RLock()
	for lock, s := range m.table {
		if s.Root == peer {
			out = append(out, lock)
		}
	}
	m.tableMu.RUnlock()
	return append(out, m.cfg.LocksReferencing(peer)...)
}

// mergeLocks unions b into sorted a, returning a sorted, deduplicated
// lock list.
func mergeLocks(a, b []proto.LockID) []proto.LockID {
	seen := make(map[proto.LockID]bool, len(a)+len(b))
	out := make([]proto.LockID, 0, len(a)+len(b))
	for _, s := range [][]proto.LockID{a, b} {
		for _, l := range s {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConfirmDead tells the manager the failure detector has confirmed peer
// dead. Idempotent. If this node is now the regenerator it starts (or
// refreshes) a round per tracked lock; otherwise it nominates its
// tracked locks to the regenerator with unsolicited claims, covering
// locks the regenerator has never touched.
func (m *Manager) ConfirmDead(peer proto.NodeID) {
	if peer == m.cfg.Self || m.dead[peer] {
		return
	}
	m.dead[peer] = true

	// Refresh in-flight rounds: stop waiting on the newly dead.
	var refreshed []*round
	for _, r := range m.round {
		if r.expected[peer] {
			delete(r.expected, peer)
			delete(r.claims, peer)
			refreshed = append(refreshed, r)
		}
	}
	sort.Slice(refreshed, func(i, j int) bool { return refreshed[i].lock < refreshed[j].lock })
	for _, r := range refreshed {
		m.finishIfComplete(r)
	}

	if reg := m.regenerator(); reg != m.cfg.Self {
		for _, lock := range mergeLocks(m.sortedLocks(), m.deadLocks(peer)) {
			m.nominate(lock, reg, false)
		}
		return
	}
	// Run a round per tracked lock and per lock the dead node is known
	// to anchor (seed-table roots, probable-owner references), plus
	// every buffered nomination for a lock only its nominator tracks
	// (they arrived before our detector confirmed and would otherwise be
	// lost — the nominator's locks then never regenerate).
	locks := mergeLocks(m.sortedLocks(), m.deadLocks(peer))
	tracked := make(map[proto.LockID]bool, len(locks))
	for _, lock := range locks {
		tracked[lock] = true
	}
	for lock, epoch := range m.pending {
		if tracked[lock] {
			continue // consumed by the tracked-lock round below
		}
		if s, ok := m.SeedFor(lock); ok && epoch < s.Epoch {
			delete(m.pending, lock) // predates a completed round
			continue
		}
		locks = append(locks, lock)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	for _, lock := range locks {
		m.startRound(lock)
	}
}

// nominate sends an unsolicited claim for lock to the regenerator and
// arranges re-sends: the nomination races the regenerator's own failure
// detector (confirmation skew between nodes is up to a heartbeat
// period) and can be lost in the same crash that triggered it, so it
// repeats every probeTimeout until this node observes the lock
// recovered into a newer epoch. The claim body is advisory (a fresh
// probe re-collects it); its arrival is what makes the regenerator
// start a round for a lock only this node knows about.
func (m *Manager) nominate(lock proto.LockID, reg proto.NodeID, cold bool) {
	st := m.cfg.State(lock)
	seq := EncodeClaimSeq(st.Epoch, st.Token)
	if cold {
		seq |= coldClaimBit
	}
	m.cfg.Send(proto.Message{
		Kind: proto.KindClaim, Lock: lock,
		From: m.cfg.Self, To: reg, TS: m.cfg.Clock.Tick(),
		Epoch: st.Epoch, Owned: st.Held,
		Seq: seq,
	})
	m.scheduleRenominate(lock, st.Epoch, cold)
}

// scheduleRenominate re-sends a nomination every probeTimeout until a
// completed round supersedes it, every confirmed death is cleared (not
// applicable to cold-start nominations, which run with no deaths at
// all), or a round for the lock is running locally (this node became
// the regenerator, or yielded to a competitor whose Recovered will
// land).
func (m *Manager) scheduleRenominate(lock proto.LockID, epoch uint32, cold bool) {
	m.cfg.After(probeTimeout, func() {
		if s, ok := m.SeedFor(lock); ok && s.Epoch > epoch {
			return // recovered: the nomination was served
		}
		if !cold && len(m.dead) == 0 {
			return // every confirmed death cleared (false alarm)
		}
		if _, active := m.round[lock]; active {
			return // a local round's own retry loop drives progress
		}
		if reg := m.regenerator(); reg != m.cfg.Self {
			m.nominate(lock, reg, cold)
			return
		}
		m.startRound(lock)
	})
}

// ColdStart reconciles journal-restored state after a whole-cluster
// restart: no death has been confirmed, but every member's replayed
// locks must converge on a single fresh epoch above everything any
// journal recorded. The lowest-ID node (the regenerator when nothing
// is dead) runs a round per lock; everyone else nominates its replayed
// locks to it with cold-marked claims that the regenerator acts on
// even though its dead set is empty. Call under the same external
// serialization as the other manager entry points, after the host has
// seeded its engines from the journal.
func (m *Manager) ColdStart(locks []proto.LockID) {
	if len(locks) == 0 {
		return
	}
	sorted := mergeLocks(locks, nil)
	if reg := m.regenerator(); reg != m.cfg.Self {
		for _, lock := range sorted {
			m.nominate(lock, reg, true)
		}
		return
	}
	for _, lock := range sorted {
		m.startRound(lock)
	}
}

// Alive tells the manager a previously confirmed-dead peer is heard
// from again (it restarted). The peer rejoins the live set — future
// rounds include it — and catches up on completed rounds lazily through
// recovery hints; state it lost in the crash stays lost. In-flight
// rounds start expecting the returned peer again: its claim both fences
// it at the proposed epoch and counts toward the majority, which may be
// exactly what unblocks a stalled round.
func (m *Manager) Alive(peer proto.NodeID) {
	delete(m.dead, peer)
	for _, r := range m.round {
		if _, claimed := r.claims[peer]; !claimed && !r.expected[peer] {
			r.expected[peer] = true
			m.probe(r, map[proto.NodeID]bool{peer: true})
		}
	}
}

// startRound begins (or re-enters) a regeneration round for one lock as
// the regenerator. The round fences this node's own engine immediately;
// survivors fence on probe receipt.
func (m *Manager) startRound(lock proto.LockID) {
	delete(m.pending, lock) // any buffered nomination is now served
	if _, active := m.round[lock]; active {
		return
	}
	st := m.cfg.State(lock)
	proposed := st.Epoch
	if s, ok := m.SeedFor(lock); ok && s.Epoch > proposed {
		proposed = s.Epoch
	}
	if m.epochFloor > proposed {
		proposed = m.epochFloor
	}
	proposed++
	m.cfg.PrepareReseed(lock, proposed)

	r := &round{
		lock:     lock,
		proposed: proposed,
		self:     claim{held: st.Held, epoch: st.Epoch, token: st.Token},
		expected: make(map[proto.NodeID]bool),
		claims:   make(map[proto.NodeID]claim),
	}
	for _, n := range m.nodes {
		if n != m.cfg.Self && !m.dead[n] {
			r.expected[n] = true
		}
	}
	m.round[lock] = r
	m.cfg.OnRoundStart(lock, proposed)
	m.probe(r, nil)
	m.scheduleRetry(lock, proposed)
	m.finishIfComplete(r) // sole member: the round is already complete
}

// probe sends the round's Probe to every expected survivor that has not
// claimed yet (all of them on the first wave), in node order.
func (m *Manager) probe(r *round, only map[proto.NodeID]bool) {
	for _, n := range m.nodes {
		if !r.expected[n] || (only != nil && !only[n]) {
			continue
		}
		if _, claimed := r.claims[n]; claimed {
			continue
		}
		m.cfg.Send(proto.Message{
			Kind: proto.KindProbe, Lock: r.lock,
			From: m.cfg.Self, To: n, TS: m.cfg.Clock.Tick(),
			Epoch: r.proposed,
		})
	}
}

// scheduleRetry re-probes unclaimed survivors every probeTimeout until
// the round completes (frames to them may have been lost in the same
// crash that triggered the round).
func (m *Manager) scheduleRetry(lock proto.LockID, proposed uint32) {
	m.cfg.After(probeTimeout, func() {
		r, active := m.round[lock]
		if !active || r.proposed != proposed {
			return
		}
		m.probe(r, nil)
		if !m.quorumMet(r) {
			// The round is short of a majority: the only path forward is
			// a confirmed-dead node returning, so keep probing the whole
			// configured set. A dead node that restarted answers the probe
			// with a claim, fencing itself at the proposed epoch and
			// counting toward the majority.
			m.probeDead(r)
		}
		m.scheduleRetry(lock, proposed)
	})
}

// quorumMet reports whether the round's fenced participants (the
// regenerator plus claimants) are a majority of the configured node set
// as it stands now. Any two majorities of one set intersect, so a
// regenerator cut off in a minority cannot commit a round, and mint a
// token, beside a majority committing its own; the price is that
// recovery halts while no majority is reachable (see docs/PROTOCOL.md).
func (m *Manager) quorumMet(r *round) bool {
	return 1+len(r.claims) > len(m.nodes)/2
}

// probeDead sends the round's probe to configured nodes outside the
// expected set (confirmed dead before or during the round) that have
// not claimed, in node order.
func (m *Manager) probeDead(r *round) {
	for _, n := range m.nodes {
		if n == m.cfg.Self || r.expected[n] {
			continue
		}
		if _, claimed := r.claims[n]; claimed {
			continue
		}
		m.cfg.Send(proto.Message{
			Kind: proto.KindProbe, Lock: r.lock,
			From: m.cfg.Self, To: n, TS: m.cfg.Clock.Tick(),
			Epoch: r.proposed,
		})
	}
}

// HandleMessage processes one recovery-protocol message, returning
// false for kinds this manager does not own (the host routes those to
// the lock engines).
func (m *Manager) HandleMessage(msg *proto.Message) bool {
	switch msg.Kind {
	case proto.KindProbe:
		m.handleProbe(msg)
	case proto.KindClaim:
		m.handleClaim(msg)
	case proto.KindRecovered:
		m.handleRecovered(msg)
	default:
		return false
	}
	return true
}

// handleProbe fences the local engine at the proposed epoch and answers
// with this node's accounted state.
func (m *Manager) handleProbe(msg *proto.Message) {
	m.cfg.Clock.Witness(msg.TS)
	lock := msg.Lock
	if r, active := m.round[lock]; active {
		if msg.From > m.cfg.Self {
			// Both nodes believe they are the regenerator (their detectors
			// confirmed different deaths). The lower ID wins; ignore the
			// probe — our round's Recovered will reseed the sender.
			return
		}
		// Yield to the lower-ID regenerator: abandon our round and answer
		// like any survivor.
		_ = r
		delete(m.round, lock)
	}
	st := m.cfg.State(lock)
	m.cfg.PrepareReseed(lock, msg.Epoch)
	m.cfg.Send(proto.Message{
		Kind: proto.KindClaim, Lock: lock,
		From: m.cfg.Self, To: msg.From, TS: m.cfg.Clock.Tick(),
		Epoch: msg.Epoch, Owned: st.Held,
		Seq: EncodeClaimSeq(st.Epoch, st.Token),
	})
}

// handleClaim records a survivor's claim in the matching round, or —
// when no round is active and this node is the regenerator — treats it
// as a nomination and starts one.
func (m *Manager) handleClaim(msg *proto.Message) {
	m.cfg.Clock.Witness(msg.TS)
	r, active := m.round[msg.Lock]
	if !active {
		// An unsolicited claim: a survivor nominating this node to
		// regenerate a lock it tracks. The claim body is discarded — the
		// round's own probes collect fenced state. Cold-start nominations
		// arrive with no confirmed death anywhere; the regenerator acts
		// on them anyway (the whole point is reconciling journal state
		// when nobody is dead).
		cold := IsColdClaim(msg.Seq)
		if m.regenerator() != m.cfg.Self || (len(m.dead) == 0 && !cold) {
			// The nominator's detector confirmed a death ours has not seen
			// yet. Buffer the nomination for ConfirmDead to replay once the
			// local detector catches up; dropping it would wedge a lock
			// only the nominator tracks.
			if e, buffered := m.pending[msg.Lock]; !buffered || msg.Epoch > e {
				m.pending[msg.Lock] = msg.Epoch
			}
			return
		}
		if leaver, departure := departClaimLeaver(msg.Seq); departure && !m.isConfigured(leaver) {
			// A departure nomination for a LEAVE this node has already
			// processed: Depart ran a round for every nominated lock with
			// the leaver excluded, so a completed round at or above the
			// nominator's epoch already covers this departure even when the
			// epochs are equal (the nominator saw our Recovered before its
			// own copy of the LEAVE). Regenerating again would churn the
			// fence and race grants issued under the completed round.
			if s, ok := m.SeedFor(msg.Lock); ok && s.Epoch >= msg.Epoch {
				m.Hint(msg.Lock, msg.From)
				return
			}
		}
		if s, ok := m.SeedFor(msg.Lock); ok && msg.Epoch < s.Epoch {
			// The nomination predates a round we already completed for this
			// lock (it was sent before the nominator saw our Recovered);
			// regenerating again would only churn the fence. The comparison
			// is strict: after a completed round every survivor sits exactly
			// at the seed epoch, so a fresh nomination triggered by a
			// subsequent crash carries msg.Epoch == s.Epoch and must start a
			// new round. A stale cold nominator missed the round entirely
			// (it was still down); answer with the outcome so its retry
			// loop terminates instead of renominating forever.
			if cold {
				m.Hint(msg.Lock, msg.From)
			}
			return
		}
		m.startRound(msg.Lock)
		return
	}
	if msg.Epoch != r.proposed {
		return // stale claim from an earlier wave
	}
	if !r.expected[msg.From] {
		// Not a node this round is waiting on: either a stray, or a
		// confirmed-dead node answering a probeDead wave. Its claim is a
		// fence ack like any other and may complete the majority, so admit
		// it into the round.
		if msg.From == m.cfg.Self || !m.isConfigured(msg.From) {
			return
		}
		r.expected[msg.From] = true
	}
	epoch, token := DecodeClaimSeq(msg.Seq)
	r.claims[msg.From] = claim{held: msg.Owned, epoch: epoch, token: token}
	m.finishIfComplete(r)
}

// handleRecovered applies a completed round broadcast by the
// regenerator.
func (m *Manager) handleRecovered(msg *proto.Message) {
	m.cfg.Clock.Witness(msg.TS)
	lock := msg.Lock
	if s, ok := m.SeedFor(lock); ok && msg.Epoch <= s.Epoch {
		return // duplicate or superseded round outcome
	}
	if st := m.cfg.State(lock); msg.Epoch < st.Epoch {
		return // the engine has already seen a newer world
	}
	root := msg.Req.Origin
	m.setSeed(lock, Seed{Root: root, Epoch: msg.Epoch})
	delete(m.round, lock) // yield any competing round we were running
	m.cfg.Reseed(lock, root, msg.Epoch, msg.Owned, msg.Queue)
}

// finishIfComplete closes a round once every expected survivor has
// claimed and its fenced participants are a majority (quorumMet): fixes
// the final epoch above all claimed epochs, selects the root, rebuilds
// the copyset from the accounted holders, broadcasts Recovered and
// applies the outcome locally.
func (m *Manager) finishIfComplete(r *round) {
	for n := range r.expected {
		if _, ok := r.claims[n]; !ok {
			return
		}
	}
	if !m.quorumMet(r) {
		// Every live survivor has fenced, but together they are a
		// minority of the configured cluster: committing here could race
		// a majority partition committing its own round. The round stays
		// open; scheduleRetry keeps probing the unreachable nodes, and a
		// departure that shrinks the node set re-checks it (RemoveNode).
		return
	}

	all := map[proto.NodeID]claim{m.cfg.Self: r.self}
	for n, c := range r.claims {
		all[n] = c
	}
	participants := make([]proto.NodeID, 0, len(all))
	for n := range all {
		participants = append(participants, n)
	}
	sort.Slice(participants, func(i, j int) bool { return participants[i] < participants[j] })

	// The final epoch must exceed every world any participant has seen,
	// or fencing could revalidate ancient in-flight frames.
	final := r.proposed
	for _, n := range participants {
		if c := all[n]; c.epoch >= final {
			final = c.epoch + 1
		}
	}

	// Root selection: the strongest surviving holder (a U/W holder is
	// necessarily the old token node — AlwaysTransfers — and R holders
	// make equally valid roots since the copyset accounts for the rest);
	// failing any holder, a token claimant (idle token survived); failing
	// that, the regenerator itself. Ties break to the lowest ID.
	root, best := proto.NoNode, modes.None
	for _, n := range participants {
		if c := all[n]; c.held != modes.None && modes.Stronger(c.held, best) {
			root, best = n, c.held
		}
	}
	if root == proto.NoNode {
		// Among token claimants, the highest claimed epoch wins (lowest
		// ID on ties): after a cold start several journals may still
		// record token ownership from different moments, and the most
		// recent epoch identifies the last true holder.
		var bestEpoch uint32
		for _, n := range participants {
			if c := all[n]; c.token && (root == proto.NoNode || c.epoch > bestEpoch) {
				root, bestEpoch = n, c.epoch
			}
		}
	}
	if root == proto.NoNode {
		root = m.cfg.Self
	}

	var copyset []proto.Request
	for _, n := range participants {
		if c := all[n]; n != root && c.held != modes.None {
			copyset = append(copyset, proto.Request{Origin: n, Mode: c.held})
		}
	}

	for _, n := range participants {
		if n == m.cfg.Self {
			continue
		}
		var q []proto.Request
		if n == root {
			q = copyset
		}
		m.cfg.Send(proto.Message{
			Kind: proto.KindRecovered, Lock: r.lock,
			From: m.cfg.Self, To: n, TS: m.cfg.Clock.Tick(),
			Epoch: final, Req: proto.Request{Origin: root},
			Owned: all[n].held, Queue: q,
		})
	}

	m.setSeed(r.lock, Seed{Root: root, Epoch: final})
	delete(m.round, r.lock)
	m.rounds++
	m.cfg.OnRoundDone(r.lock, final)
	var q []proto.Request
	if root == m.cfg.Self {
		q = copyset
	}
	m.cfg.Reseed(r.lock, root, final, r.self.held, q)
}

// Hint answers a peer whose traffic the local engine dropped as stale
// with the completed-round outcome for the lock, letting a restarted
// node catch up without a full round. Safe for concurrent use. No-op if
// no round has completed for the lock.
func (m *Manager) Hint(lock proto.LockID, to proto.NodeID) {
	s, ok := m.SeedFor(lock)
	if !ok {
		return
	}
	m.cfg.Send(proto.Message{
		Kind: proto.KindRecovered, Lock: lock,
		From: m.cfg.Self, To: to, TS: m.cfg.Clock.Tick(),
		Epoch: s.Epoch, Req: proto.Request{Origin: s.Root},
		Owned: modes.None,
	})
}
