package recovery

import (
	"slices"
	"sort"

	"hierlock/internal/proto"
)

// This file is the manager's runtime-membership surface: joins and
// graceful departures reuse the crash-recovery machinery (a join is a
// recovery round with zero lost tokens; a departure is a crash whose
// victim got to nominate its own locks first). All methods here follow
// the manager's serialization contract: external serialization with the
// other entry points, except Adopt, which only touches the
// concurrent-safe seed table.

// AddNode admits a peer into the configured node set: future rounds
// expect (and count) it, and it is a regenerator candidate by ID like
// any original member. Idempotent. A peer previously confirmed dead and
// re-added is treated as alive again.
func (m *Manager) AddNode(peer proto.NodeID) {
	delete(m.dead, peer)
	for _, n := range m.nodes {
		if n == peer {
			return
		}
	}
	m.nodes = append(m.nodes, peer)
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i] < m.nodes[j] })
}

// RemoveNode retires a peer from the configured node set — the inverse
// of AddNode, used for graceful departures. Unlike ConfirmDead, which
// keeps the node configured (a crashed member may restart), a removed
// node stops being probed, stops counting toward the majority, and
// stops being a regenerator candidate. In-flight rounds drop its claim
// or the expectation of one and re-check at once against the smaller
// set's majority, which may complete them. Idempotent.
func (m *Manager) RemoveNode(peer proto.NodeID) {
	delete(m.dead, peer)
	i := slices.Index(m.nodes, peer)
	if i < 0 {
		return
	}
	m.nodes = slices.Delete(m.nodes, i, i+1)

	open := make([]*round, 0, len(m.round))
	for _, r := range m.round {
		delete(r.expected, peer)
		delete(r.claims, peer)
		open = append(open, r)
	}
	sort.Slice(open, func(i, j int) bool { return open[i].lock < open[j].lock })
	for _, r := range open {
		m.finishIfComplete(r)
	}
}

// Depart processes a peer's graceful departure: the peer is removed
// from the node set, and every lock it nominated (the tokens it held),
// anchors as a seed root, or threads a probable-owner chain through is
// regenerated among the survivors. The regeneration rounds run with the
// leaver already excluded, so the new world cannot re-reference it.
//
// A non-regenerator's nominations carry the leaver's identity
// (departure-marked claims) so the regenerator — which received the
// same LEAVE broadcast and runs the round on its own — can drop them
// as redundant once its round has completed, instead of reading a
// nomination at the seed epoch as a fresh event and running a second
// round whose reseed races grants issued under the first.
func (m *Manager) Depart(peer proto.NodeID, nominated []proto.LockID) {
	m.RemoveNode(peer)
	reg := m.regenerator()
	for _, lock := range mergeLocks(m.deadLocks(peer), nominated) {
		if reg != m.cfg.Self {
			m.nominateDepart(lock, reg, peer)
			continue
		}
		m.startRound(lock)
	}
}

// nominateDepart sends one departure-marked cold nomination for lock to
// the regenerator. Unlike nominate it does not arm the renominate loop:
// the regenerator did not crash, so the claim travels a live transport,
// and if the regenerator dies anyway the leaver's silence trips crash
// recovery, whose ConfirmDead nominations take over. A retry loop here
// would spin forever on the redundant case (the regenerator rightly
// drops the nomination, so the local epoch never advances past it).
func (m *Manager) nominateDepart(lock proto.LockID, reg, leaver proto.NodeID) {
	st := m.cfg.State(lock)
	m.cfg.Send(proto.Message{
		Kind: proto.KindClaim, Lock: lock,
		From: m.cfg.Self, To: reg, TS: m.cfg.Clock.Tick(),
		Epoch: st.Epoch, Owned: st.Held,
		Seq: encodeDepartClaim(EncodeClaimSeq(st.Epoch, st.Token)|coldClaimBit, leaver),
	})
}

// Regenerate forces a regeneration round for one lock: the local node
// starts it if it is the regenerator, and otherwise nominates the lock
// to whoever is. The nomination is cold-marked — membership changes,
// like cold starts, regenerate with no confirmed death anywhere.
func (m *Manager) Regenerate(lock proto.LockID) {
	if reg := m.regenerator(); reg != m.cfg.Self {
		m.nominate(lock, reg, true)
		return
	}
	m.startRound(lock)
}

// Adopt installs a completed-round outcome learned out of band (a
// joiner seeding its world from a member's JoinAck). Outcomes older
// than what the table already holds are ignored. Safe for concurrent
// use, like the seed-table reads it complements.
func (m *Manager) Adopt(lock proto.LockID, s Seed) {
	m.tableMu.Lock()
	defer m.tableMu.Unlock()
	if cur, ok := m.table[lock]; ok && cur.Epoch >= s.Epoch {
		return
	}
	m.table[lock] = s
}

// SetEpochFloor guarantees every future round this node starts proposes
// an epoch strictly above floor. A joiner sets it to the highest epoch
// any member reported, so a round it later regenerates cannot collide
// with a world it never observed.
func (m *Manager) SetEpochFloor(floor uint32) {
	if floor > m.epochFloor {
		m.epochFloor = floor
	}
}

// Nodes returns the configured node set (sorted ascending), including
// Self and any confirmed-dead members.
func (m *Manager) Nodes() []proto.NodeID {
	return append([]proto.NodeID(nil), m.nodes...)
}
