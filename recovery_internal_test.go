package hierlock

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/recovery"
	"hierlock/internal/transport"
)

// newDetectorPair boots a two-member loopback TCP cluster with the
// failure detector enabled (aggressive timings for test speed).
func newDetectorPair(t *testing.T) [2]*Member {
	t.Helper()
	var addrs [2]string
	var boot [2]*Member
	for i := 0; i < 2; i++ {
		m, err := NewTCPMember(TCPMemberConfig{ID: i, ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		boot[i] = m
		addrs[i] = m.TCPAddr()
	}
	for _, m := range boot {
		_ = m.Close()
	}
	var members [2]*Member
	for i := 0; i < 2; i++ {
		m, err := NewTCPMember(TCPMemberConfig{
			ID:                i,
			ListenAddr:        addrs[i],
			Peers:             map[int]string{1 - i: addrs[1-i]},
			HeartbeatInterval: 25 * time.Millisecond,
			ConfirmAfter:      time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
	}
	t.Cleanup(func() {
		for _, m := range members {
			_ = m.Close()
		}
	})
	return members
}

// peerDead reads the recovery manager's dead mark under its mutex.
func peerDead(m *Member, peer int) bool {
	m.mgrMu.Lock()
	defer m.mgrMu.Unlock()
	return m.mgr.Dead(proto.NodeID(peer))
}

// TestStaleDetectorCallbacksDropped guards the ordering gate in
// peerConfirmed/peerAlive: detector callbacks are dispatched on fresh
// goroutines, so a peer flapping at the confirm boundary can have its
// Alive processed before its ConfirmDead — without the gate that
// permanently marks a live peer dead (no further edge ever clears it).
// Both handlers re-check the detector's current state and drop
// callbacks it has moved past; this test injects the stale callbacks
// directly.
func TestStaleDetectorCallbacksDropped(t *testing.T) {
	members := newDetectorPair(t)
	m0 := members[0]

	// Peer 1 is alive and heartbeating: a confirm callback that was
	// overtaken by the peer's recovery must be a no-op.
	m0.peerConfirmed(proto.NodeID(1))
	if peerDead(m0, 1) {
		t.Fatal("stale confirm marked a live peer dead")
	}

	// Crash peer 1: the genuine confirm edge marks it dead.
	if err := members[1].Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for !peerDead(m0, 1) {
		if time.Now().After(deadline) {
			t.Fatal("detector never confirmed the crashed peer")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// An alive callback from before the (re-)confirmation must not
	// resurrect the peer while the detector still counts it dead.
	m0.peerAlive(proto.NodeID(1))
	if !peerDead(m0, 1) {
		t.Fatal("stale alive cleared a confirmed-dead peer")
	}

	if st, ok := m0.detectorState(proto.NodeID(1)); !ok || st != recovery.PeerConfirmed {
		t.Fatalf("detector state = %v, %v, want confirmed", st, ok)
	}
}

// TestStaleHintSyncsOutsideStripe: the recovery hint a stale message earns
// is a recovery send — the first one for its (lock, epoch) appends a
// journal record and syncs it — so it goes out under mgrMu once the
// message's stripe is released, and a client on that stripe does not wait
// for the disk. The journal's fsync observer, which Sync runs inline,
// blocks the hint here while a resident lock on the stripe is taken.
func TestStaleHintSyncsOutsideStripe(t *testing.T) {
	m, err := NewTCPMember(TCPMemberConfig{ID: 0, ListenAddr: "127.0.0.1:0",
		HeartbeatInterval: time.Second, DataDir: t.TempDir(), FsyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	ctx := context.Background()
	stale, resident := sameStripe("hint")
	lockResident := func() error {
		l, err := m.Lock(ctx, resident, W)
		if err != nil {
			return err
		}
		return l.Unlock()
	}
	// The first grant on the resident lock journals its record now, not
	// while the hint's Sync holds the journal.
	if err := lockResident(); err != nil {
		t.Fatal(err)
	}
	lock := lockIDFor(stale)
	m.mgrMu.Lock()
	m.mgr.Adopt(lock, recovery.Seed{Root: m.id, Epoch: 3})
	m.mgrMu.Unlock()

	syncing, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.jn.SetFsyncObserver(func(time.Duration) {
		once.Do(func() { close(syncing) })
		<-release
	})
	hinted := make(chan struct{})
	go func() {
		defer close(hinted)
		m.handle(&proto.Message{Kind: proto.KindRequest, Lock: lock, From: 1, To: m.id, Epoch: 0})
	}()
	select {
	case <-syncing:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a stale message's hint did not sync the journal")
	}
	granted := make(chan error, 1)
	go func() { granted <- lockResident() }()
	select {
	case err := <-granted:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(time.Second):
		t.Error("Lock on the stale lock's stripe waits for the hint's fsync")
	}
	close(release)
	<-hinted
}

// TestEarlyFrameReplayedAtReseed: a member that has applied a round's
// outcome re-issues its pending request to the new root, and the root,
// whose own Recovered is still on its way, is fenced for that round.
// The frame carries the round's epoch, so it is not stale but early: the
// root keeps it, serves it at its reseed and counts no stale drop. Dropped, it was lost for
// good (the requester is ahead, so no hint helps) and the client waited
// until RecoveryTimeout.
func TestEarlyFrameReplayedAtReseed(t *testing.T) {
	cl, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m0, m1 := cl.Member(0), cl.Member(1)
	lock := lockIDFor("early")
	for _, m := range []*Member{m0, m1} {
		m.recoveryPrepare(lock, 1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type result struct {
		l   *Lock
		err error
	}
	done := make(chan result, 1)
	go func() {
		l, err := m1.Lock(ctx, "early", W)
		done <- result{l, err}
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	staleDrops := func(m *Member) uint64 {
		for _, li := range m.Inventory().Locks {
			if li.Lock == uint64(lock) {
				return li.StaleDrops
			}
		}
		return 0
	}
	waitFor("member 1's fenced request", func() bool {
		for _, li := range m1.Inventory().Locks {
			if li.Lock == uint64(lock) && li.Pending == "W" {
				return true
			}
		}
		return false
	})
	// Member 1 applies the round (root 0, epoch 1) and re-issues; the
	// root is still fenced when the request lands.
	m1.recoveryReseed(lock, 0, 1, modes.None, nil)
	waitFor("the request at the fenced root", func() bool {
		sh, ls := m0.state(lock, "")
		defer sh.mu.Unlock()
		return len(ls.early) == 1
	})
	m0.recoveryReseed(lock, 0, 1, modes.None, nil)

	r := <-done
	if r.err != nil {
		t.Fatalf("request re-issued into the fenced root: %v", r.err)
	}
	if f := r.l.Fence(); f.Epoch != 1 {
		t.Fatalf("granted at epoch %d, want the round's 1", f.Epoch)
	}
	if err := r.l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if n := staleDrops(m0); n != 0 {
		t.Fatalf("the root counts %d stale drops for a frame it served", n)
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaveLoweringQuorumCommitsRound: a graceful leave shrinks the node
// set, and a round that the smaller set's majority already covers
// commits then. Four members need three participants. Peers 2 and 3 are
// configured at addresses nobody serves, with confirmation a minute
// away. Member 0 runs a round for its lock after confirming 3 dead, and
// member 1 claims: two of four. Peer 2's LEAVE leaves three members,
// whose majority is two, so the round commits. Were the round re-checked
// against the majority of four, it would stay open until peer 3 came
// back.
func TestLeaveLoweringQuorumCommitsRound(t *testing.T) {
	addrs := make([]string, 4)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close()
	}
	var members [2]*Member
	for i := range members {
		peers := make(map[int]string)
		for j, a := range addrs {
			if j != i {
				peers[j] = a
			}
		}
		m, err := NewTCPMember(TCPMemberConfig{ID: i, ListenAddr: addrs[i],
			Peers: peers, ConfirmAfter: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		members[i] = m
	}
	m0, m1 := members[0], members[1]

	l, err := m0.Lock(context.Background(), "wedge", W)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	lock := lockIDFor("wedge")
	m0.mgrMu.Lock()
	m0.mgr.ConfirmDead(3)
	m0.mgrMu.Unlock()
	// The claim is handled before the leave: member 1 sends it under its
	// mgrMu, and member 0 acknowledges a frame once its handler returns.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("member 1's claim", func() bool { return m1.sent[proto.KindClaim].Load() > 0 })
	m1.mgrMu.Lock()
	m1.mgrMu.Unlock() // the claim is queued
	tr1 := m1.tr.(*transport.TCPTransport)
	waitFor("member 0's ack of the claim", func() bool { return tr1.QueueStats()[0].Len == 0 })
	if s, ok := m0.mgr.SeedFor(lock); ok {
		t.Fatalf("2 of 4 committed a round: seed %+v", s)
	}

	m0.handleLeave(&proto.Message{Kind: proto.KindLeave, From: 2, To: 0})

	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if s, ok := m0.mgr.SeedFor(lock); ok && s.Epoch > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the round stayed open after the leave lowered the majority to 2 of 3")
		}
	}
	for i, m := range members {
		if err := m.Err(); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
}
