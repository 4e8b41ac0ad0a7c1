package hierlock

import (
	"testing"
	"time"

	"hierlock/internal/proto"
	"hierlock/internal/recovery"
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
			RedialBackoff:     20 * time.Millisecond,
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
