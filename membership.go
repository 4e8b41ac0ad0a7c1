package hierlock

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hierlock/internal/proto"
	"hierlock/internal/recovery"
	"hierlock/internal/trace"
	"hierlock/internal/transport"
)

// This file is the member's runtime-membership layer: the JOIN handshake
// (a joiner probes the cluster, adopts the highest epoch any member has
// observed, and seeds its engines from the cluster's recovery table — a
// join is a recovery round with zero lost tokens) and the graceful LEAVE
// hand-off (a departing member nominates every token it holds for
// regeneration among the survivors, so probable-owner chains re-route
// around it before it disconnects). A leaver that dies mid-handshake is
// simply a crash: the survivors' failure detectors confirm it dead and
// the ordinary recovery path regenerates whatever the hand-off missed.
//
// All handshake messages travel as v4 wire kinds (KindJoin/KindJoinAck/
// KindLeave/KindLeaveAck). The initial JOIN is delivered out-of-band by
// TCPTransport.SendTo — the joiner knows the seed's address but not yet
// a peer link — and may therefore be duplicated; every handler here is
// idempotent.

// Membership handshake tuning.
const (
	// membershipRetry is the announce/ack retry cadence of Join and
	// Leave while acknowledgments are outstanding.
	membershipRetry = 250 * time.Millisecond
	// leaveDetachDelay is how long a survivor keeps a leaver's peer link
	// after acknowledging its LEAVE, so the ack (and any hand-off retry
	// acks) drain before the writer is retired.
	leaveDetachDelay = 2 * time.Second
	// seedBatchLimit caps the recovery-table seeds a JoinAck carries (the
	// joiner learns the rest lazily through recovery hints).
	seedBatchLimit = 1024
)

// ErrNoMembership is returned by Join and Leave on members without a
// runtime-membership surface (in-process members, or TCP members created
// without HeartbeatInterval: membership rides the recovery machinery).
var ErrNoMembership = errors.New("hierlock: membership requires a TCP member with recovery enabled")

// membership returns the member's transport and recovery surfaces, or
// ErrNoMembership when either is missing.
func (m *Member) membership() (*transport.TCPTransport, error) {
	t, ok := m.tr.(*transport.TCPTransport)
	if !ok || m.mgr == nil {
		return nil, ErrNoMembership
	}
	return t, nil
}

// Join announces this member to a running cluster through the seed
// member at seedAddr and blocks until every member it learns about has
// acknowledged it (or ctx expires). The member must have been created
// with the cluster's Root and a unique ID; it typically starts with an
// empty peer set and learns the cluster from the seed's JoinAck, which
// also carries the highest recovery epoch observed (adopted as this
// member's epoch floor) and a batch of recovery-table seeds (so lazily
// created engines re-home to regenerated roots instead of the static
// topology). Idempotent: re-joining an already-joined cluster re-announces.
func (m *Member) Join(ctx context.Context, seedAddr string) error {
	t, err := m.membership()
	if err != nil {
		return err
	}
	if m.closed.Load() {
		return ErrClosed
	}
	if m.leaving.Load() {
		return ErrLeaving
	}
	joinC := make(chan proto.NodeID, 64)
	m.ackMu.Lock()
	m.joinC = joinC
	m.ackMu.Unlock()
	defer func() {
		m.ackMu.Lock()
		m.joinC = nil
		m.ackMu.Unlock()
	}()

	announce := proto.Message{Kind: proto.KindJoin, From: m.id, To: proto.NoNode,
		TS: m.clock.Tick(), Addr: m.advertise}
	m.countMembershipSend(&announce)
	if err := t.SendTo(seedAddr, &announce); err != nil {
		return fmt.Errorf("hierlock: join via %s: %w", seedAddr, err)
	}

	acked := make(map[proto.NodeID]bool)
	retry := time.NewTicker(membershipRetry)
	defer retry.Stop()
	for {
		select {
		case id := <-joinC:
			acked[id] = true
			if pending := m.unackedPeers(t, acked); len(pending) == 0 {
				return nil
			}
		case <-retry.C:
			pending := m.unackedPeers(t, acked)
			if len(pending) == 0 && len(acked) > 0 {
				return nil
			}
			if len(acked) == 0 {
				// The seed has not answered yet: re-send out-of-band.
				re := proto.Message{Kind: proto.KindJoin, From: m.id,
					To: proto.NoNode, TS: m.clock.Tick(), Addr: m.advertise}
				m.countMembershipSend(&re)
				_ = t.SendTo(seedAddr, &re)
				continue
			}
			for _, id := range pending {
				m.sendMembership(&proto.Message{Kind: proto.KindJoin,
					From: m.id, To: id, TS: m.clock.Tick(), Addr: m.advertise})
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-m.done:
			return ErrClosed
		}
	}
}

// unackedPeers lists the transport peers that have not acknowledged the
// handshake yet, sorted for deterministic retry order.
func (m *Member) unackedPeers(t *transport.TCPTransport, acked map[proto.NodeID]bool) []proto.NodeID {
	var out []proto.NodeID
	for id := range t.Peers() {
		if !acked[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Leave gracefully departs the cluster: the member stops taking new
// client operations (ErrLeaving), refuses to leave while local holds
// are outstanding (unlock first — hand-off moves tokens, not client
// holds), nominates every token it holds to the survivors, and blocks
// until every peer has acknowledged the hand-off (or ctx expires). After
// a successful Leave the caller should Close the member; the survivors
// retire its links on their own. A leaver that crashes mid-Leave is
// handled by the survivors' ordinary crash-recovery path.
func (m *Member) Leave(ctx context.Context) error {
	t, err := m.membership()
	if err != nil {
		return err
	}
	if m.closed.Load() {
		return ErrClosed
	}
	m.leaving.Store(true)
	if n := m.heldLockCount(); n > 0 {
		m.leaving.Store(false)
		return fmt.Errorf("hierlock: leave with %d held locks (unlock first)", n)
	}
	tokens := m.tokenLockIDs()
	peers := m.unackedPeers(t, nil)
	if len(peers) == 0 {
		return nil // single-node cluster: nothing to hand off to
	}

	leaveC := make(chan proto.NodeID, 64)
	m.ackMu.Lock()
	m.leaveC = leaveC
	m.ackMu.Unlock()
	defer func() {
		m.ackMu.Lock()
		m.leaveC = nil
		m.ackMu.Unlock()
	}()

	vec := make([]uint64, len(tokens))
	for i, l := range tokens {
		vec[i] = uint64(l)
	}
	broadcast := func(to []proto.NodeID) {
		for _, id := range to {
			m.sendMembership(&proto.Message{Kind: proto.KindLeave,
				From: m.id, To: id, TS: m.clock.Tick(), Vec: vec})
		}
	}
	broadcast(peers)

	acked := make(map[proto.NodeID]bool)
	retry := time.NewTicker(membershipRetry)
	defer retry.Stop()
	for {
		select {
		case id := <-leaveC:
			acked[id] = true
			if m.allAcked(peers, acked) {
				return nil
			}
		case <-retry.C:
			var pending []proto.NodeID
			for _, id := range peers {
				if !acked[id] {
					pending = append(pending, id)
				}
			}
			broadcast(pending)
		case <-ctx.Done():
			return ctx.Err()
		case <-m.done:
			return ErrClosed
		}
	}
}

// allAcked reports whether every peer in the hand-off set acknowledged.
func (m *Member) allAcked(peers []proto.NodeID, acked map[proto.NodeID]bool) bool {
	for _, id := range peers {
		if !acked[id] {
			return false
		}
	}
	return true
}

// heldLockCount counts locks with a live local client hold.
func (m *Member) heldLockCount() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, ls := range sh.locks {
			if ls.hold != nil && !ls.hold.lost {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// tokenLockIDs lists the locks whose token this member currently holds,
// sorted — the hand-off set a LEAVE nominates.
func (m *Member) tokenLockIDs() []proto.LockID {
	var out []proto.LockID
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, ls := range sh.locks {
			if ls.engine.IsToken() {
				out = append(out, id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// handleJoin admits (or re-acknowledges) a joining peer: its address
// joins the transport's peer set, its ID joins the recovery node set,
// the quorum is recomputed if it tracks the majority, and a JoinAck
// answers with this member's world — the peer list, the highest epoch
// observed, and a batch of recovery-table seeds. Idempotent: the initial
// JOIN arrives out-of-band and may be duplicated.
func (m *Member) handleJoin(msg *proto.Message) {
	t, err := m.membership()
	if err != nil || msg.From == m.id || msg.Addr == "" || msg.From < 0 {
		return
	}
	if m.leaving.Load() {
		return // a departing member admits no one
	}
	m.mgrMu.Lock()
	known := false
	for _, n := range m.mgr.Nodes() {
		if n == msg.From {
			known = true
			break
		}
	}
	t.AddPeer(msg.From, msg.Addr)
	m.mgr.AddNode(msg.From)
	if m.quorumAuto {
		m.mgr.SetQuorum(len(m.mgr.Nodes())/2 + 1)
	}
	ack := proto.Message{Kind: proto.KindJoinAck, From: m.id, To: msg.From,
		TS:    m.clock.Tick(),
		Addr:  m.peerList(t),
		Epoch: m.maxEpochObserved(),
		Queue: m.seedBatch(),
	}
	m.mgrMu.Unlock()
	if !known {
		tel := m.tel.Load()
		tel.mJoins.Inc()
		if lg := tel.log; lg != nil {
			lg.Info("peer joined", "peer", int(msg.From), "addr", msg.Addr)
		}
	}
	m.sendMembership(&ack)
}

// handleJoinAck is the joiner's side of the handshake: adopt the
// answering member's world (peer set, epoch floor, recovery seeds),
// announce to any member learned for the first time, and wake the Join
// call. Also idempotent — acks are re-sent on every retry.
func (m *Member) handleJoinAck(msg *proto.Message) {
	t, err := m.membership()
	if err != nil || msg.From == m.id {
		return
	}
	peers, perr := parsePeerList(msg.Addr)
	if perr != nil {
		if lg := m.tel.Load().log; lg != nil {
			lg.Warn("bad join ack peer list", "from", int(msg.From), "err", perr)
		}
		return
	}
	existing := t.Peers()
	m.mgrMu.Lock()
	var learned []proto.NodeID
	for id, addr := range peers {
		if id == m.id {
			continue
		}
		if _, ok := existing[id]; !ok {
			learned = append(learned, id)
		}
		t.AddPeer(id, addr)
		m.mgr.AddNode(id)
	}
	if m.quorumAuto {
		m.mgr.SetQuorum(len(m.mgr.Nodes())/2 + 1)
	}
	m.mgr.SetEpochFloor(msg.Epoch)
	for _, r := range msg.Queue {
		m.mgr.Adopt(proto.LockID(r.TS), recovery.Seed{
			Root: r.Origin, Epoch: uint32(r.Trace.Seq)})
	}
	m.mgrMu.Unlock()

	sort.Slice(learned, func(i, j int) bool { return learned[i] < learned[j] })
	for _, id := range learned {
		if id == msg.From {
			continue
		}
		m.sendMembership(&proto.Message{Kind: proto.KindJoin,
			From: m.id, To: id, TS: m.clock.Tick(), Addr: m.advertise})
	}

	m.ackMu.Lock()
	if c := m.joinC; c != nil {
		select {
		case c <- msg.From:
		default:
		}
	}
	m.ackMu.Unlock()
}

// handleLeave processes a peer's graceful departure: acknowledge first —
// on the still-live link, so the leaver can unblock — then hand its
// nominated token locks to the recovery machinery for regeneration among
// the survivors, and finally retire the peer link after a grace delay
// (the ack, and acks for any hand-off retries, must drain before the
// writer is dropped). Idempotent: a re-delivered LEAVE from an already-
// departed peer is re-acknowledged while its link survives and hands
// off nothing new.
func (m *Member) handleLeave(msg *proto.Message) {
	t, err := m.membership()
	if err != nil || msg.From == m.id {
		return
	}
	m.sendMembership(&proto.Message{Kind: proto.KindLeaveAck,
		From: m.id, To: msg.From, TS: m.clock.Tick()})

	m.mgrMu.Lock()
	wasMember := false
	for _, n := range m.mgr.Nodes() {
		if n == msg.From {
			wasMember = true
			break
		}
	}
	if wasMember {
		locks := make([]proto.LockID, len(msg.Vec))
		for i, v := range msg.Vec {
			locks[i] = proto.LockID(v)
		}
		m.mgr.Depart(msg.From, locks)
		if m.quorumAuto {
			m.mgr.SetQuorum(len(m.mgr.Nodes())/2 + 1)
		}
	}
	m.mgrMu.Unlock()
	if wasMember {
		tel := m.tel.Load()
		tel.mLeaves.Inc()
		tel.mHandoff.Add(uint64(len(msg.Vec)))
		if lg := tel.log; lg != nil {
			lg.Info("peer left gracefully", "peer", int(msg.From),
				"handoff_locks", len(msg.Vec))
		}
		peer := msg.From
		m.afterTracked(leaveDetachDelay, func() {
			t.RemovePeer(peer)
		})
	}
}

// handleLeaveAck wakes a blocked Leave call.
func (m *Member) handleLeaveAck(msg *proto.Message) {
	m.ackMu.Lock()
	if c := m.leaveC; c != nil {
		select {
		case c <- msg.From:
		default:
		}
	}
	m.ackMu.Unlock()
}

// peerList renders this member's view of the cluster as the JoinAck
// peer-list syntax "id=host:port,..." (itself included, so the joiner
// learns the answering member's advertised address too).
func (m *Member) peerList(t *transport.TCPTransport) string {
	peers := t.Peers()
	ids := make([]proto.NodeID, 0, len(peers)+1)
	for id := range peers {
		ids = append(ids, id)
	}
	if m.advertise != "" {
		peers[m.id] = m.advertise
		ids = append(ids, m.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id)) + "=" + peers[id]
	}
	return strings.Join(parts, ",")
}

// parsePeerList parses the JoinAck peer-list syntax.
func parsePeerList(s string) (map[proto.NodeID]string, error) {
	out := make(map[proto.NodeID]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[1] == "" {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad peer id %q", kv[0])
		}
		out[proto.NodeID(id)] = kv[1]
	}
	return out, nil
}

// maxEpochObserved is the highest recovery epoch this member has seen —
// across the completed-round seed table and its live engines (an engine
// can briefly lead the table while a hint is in flight). A joiner adopts
// it as its epoch floor so a round it later regenerates cannot collide
// with a world it never observed. Caller holds mgrMu.
func (m *Member) maxEpochObserved() uint32 {
	var max uint32
	for _, s := range m.mgr.Table() {
		if s.Epoch > max {
			max = s.Epoch
		}
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, ls := range sh.locks {
			if e := ls.engine.Epoch(); e > max {
				max = e
			}
		}
		sh.mu.Unlock()
	}
	return max
}

// seedBatch encodes the recovery table for a JoinAck: each completed
// round's (lock, root, epoch) rides a Request slot — Origin is the
// regenerated root, TS the lock ID, Trace.Seq the epoch. Sorted by lock
// and capped at seedBatchLimit (the joiner learns anything beyond the
// cap lazily, through Stale hints).
func (m *Member) seedBatch() []proto.Request {
	table := m.mgr.Table()
	locks := make([]proto.LockID, 0, len(table))
	for l := range table {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	if len(locks) > seedBatchLimit {
		locks = locks[:seedBatchLimit]
	}
	out := make([]proto.Request, len(locks))
	for i, l := range locks {
		s := table[l]
		out[i] = proto.Request{Origin: s.Root, TS: proto.Timestamp(l),
			Trace: proto.TraceID{Seq: uint64(s.Epoch)}}
	}
	return out
}

// sendMembership transmits one membership-handshake message over the
// regular peer link, with the same accounting as engine traffic. Send
// failures are not surfaced: both handshakes retry until acknowledged.
func (m *Member) sendMembership(msg *proto.Message) {
	m.countMembershipSend(msg)
	_ = m.tr.Send(msg)
}

// countMembershipSend applies the outbound-message accounting without
// transmitting (the initial JOIN goes out-of-band via SendTo).
func (m *Member) countMembershipSend(msg *proto.Message) {
	m.countMessage(msg.Kind)
	if rec := m.tel.Load().rec; rec != nil {
		rec.Record(trace.Entry{At: sinceEpoch(), Op: trace.OpSend,
			Node: m.id, Kind: msg.Kind, From: msg.From, To: msg.To,
			Epoch: msg.Epoch, Trace: msgTrace(msg)})
	}
}

// MemberInfo describes one cluster member as this member sees it.
type MemberInfo struct {
	// ID is the member's node identifier.
	ID int
	// Addr is its advertised peer address ("" when unknown — in-process
	// members, or this member itself when created without an advertised
	// address).
	Addr string
	// Self marks the entry describing the member that answered.
	Self bool
}

// Members returns this member's current view of the cluster, sorted by
// ID. Without recovery enabled the view is static (the configured peer
// set); with it, joins and departures are reflected live.
func (m *Member) Members() []MemberInfo {
	addrs := make(map[proto.NodeID]string)
	if t, ok := m.tr.(*transport.TCPTransport); ok {
		addrs = t.Peers()
	}
	var ids []proto.NodeID
	if m.mgr != nil {
		m.mgrMu.Lock()
		ids = m.mgr.Nodes()
		m.mgrMu.Unlock()
	} else {
		for id := range addrs {
			ids = append(ids, id)
		}
		ids = append(ids, m.id)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	out := make([]MemberInfo, 0, len(ids))
	for _, id := range ids {
		info := MemberInfo{ID: int(id), Addr: addrs[id], Self: id == m.id}
		if info.Self && info.Addr == "" {
			info.Addr = m.advertise
		}
		out = append(out, info)
	}
	return out
}
