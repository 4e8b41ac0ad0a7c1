package hierlock_test

import (
	"context"
	"testing"
	"time"

	"hierlock"
)

// recoveryTCPConfig is the aggressive-timing config the membership tests
// boot members with (join/leave requires the recovery runtime).
func recoveryTCPConfig(id int, listen string, peers map[int]string) hierlock.TCPMemberConfig {
	return hierlock.TCPMemberConfig{
		ID:                id,
		ListenAddr:        listen,
		Peers:             peers,
		RedialBackoff:     20 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		ConfirmAfter:      500 * time.Millisecond,
		ProbeTimeout:      150 * time.Millisecond,
		RecoveryTimeout:   20 * time.Second,
	}
}

// waitMembers polls until the member reports the wanted cluster size.
func waitMembers(t *testing.T, m *hierlock.Member, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if got := len(m.Members()); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("member %d: cluster size = %d, want %d (members: %+v)",
				m.ID(), len(m.Members()), want, m.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPMembershipGrowShrink is the tentpole's live acceptance test: a
// three-node cluster grows to four through a JOIN handshake while a
// lock is held across the transition, the joiner participates fully,
// then a member departs gracefully with tokens at its node — all with
// fencing tokens never decreasing and no protocol errors.
func TestTCPMembershipGrowShrink(t *testing.T) {
	members := newRecoveryTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A lock held across the join: the joiner must not perturb it.
	heldLock, err := members[0].Lock(ctx, "grow-held", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	f0 := heldLock.Fence()

	// Boot the joiner with an empty peer map — everything it knows about
	// the cluster arrives through the JOIN handshake.
	joiner, err := hierlock.NewTCPMember(recoveryTCPConfig(3, "127.0.0.1:0", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if err := joiner.Join(ctx, members[0].TCPAddr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	for _, m := range members {
		waitMembers(t, m, 4)
	}
	waitMembers(t, joiner, 4)

	// The joiner serves traffic immediately: W on a fresh resource, and
	// contends on the held resource once the holder releases.
	l, err := joiner.Lock(ctx, "grow-fresh", hierlock.W)
	if err != nil {
		t.Fatalf("joiner lock: %v", err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := heldLock.Unlock(); err != nil {
		t.Fatal(err)
	}
	l2, err := joiner.Lock(ctx, "grow-held", hierlock.W)
	if err != nil {
		t.Fatalf("joiner lock after release: %v", err)
	}
	if f2 := l2.Fence(); !f0.Less(f2) {
		t.Fatalf("fence went backwards across the join: %+v then %+v", f0, f2)
	}
	if err := l2.Unlock(); err != nil {
		t.Fatal(err)
	}

	// Shrink: member 2 pulls a token to itself (acquire + release leaves
	// the token resident, not held), then leaves. The hand-off must
	// regenerate the token among the survivors.
	lt, err := members[2].Lock(ctx, "shrink-res", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	ft := lt.Fence()
	if err := lt.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := members[2].Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := members[2].Close(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*hierlock.Member{members[0], members[1], joiner} {
		waitMembers(t, m, 3)
	}

	// Survivors serve the handed-off lock, fences still climbing.
	for _, m := range []*hierlock.Member{members[0], members[1], joiner} {
		l, err := m.Lock(ctx, "shrink-res", hierlock.W)
		if err != nil {
			t.Fatalf("member %d after leave: %v", m.ID(), err)
		}
		if f := l.Fence(); !ft.Less(f) {
			t.Fatalf("fence went backwards across the leave: %+v then %+v", ft, f)
		}
		ft = l.Fence()
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*hierlock.Member{members[0], members[1], joiner} {
		if err := m.Err(); err != nil {
			t.Errorf("member %d protocol error: %v", m.ID(), err)
		}
	}
}

// TestTCPLeaveRefusedWhileHolding: a member holding a client lock
// cannot leave; after releasing, the same leave succeeds.
func TestTCPLeaveRefusedWhileHolding(t *testing.T) {
	members := newRecoveryTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	l, err := members[2].Lock(ctx, "leave-held", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if err := members[2].Leave(ctx); err == nil {
		t.Fatal("leave succeeded while holding a lock")
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := members[2].Leave(ctx); err != nil {
		t.Fatalf("leave after release: %v", err)
	}
	waitMembers(t, members[0], 2)
	waitMembers(t, members[1], 2)
}

// TestTCPLeaverKilledMidHandoff: the leaver dies before its LEAVE
// completes (its context expires after at most one broadcast, then the
// process "crashes"). Whichever prefix of the survivors processed the
// LEAVE, the cluster must converge — graceful departure where the
// announcement landed, crash recovery where it did not — and serve the
// token the leaver took down with it.
func TestTCPLeaverKilledMidHandoff(t *testing.T) {
	members := newRecoveryTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Pull the token for the resource to the doomed member.
	l, err := members[2].Lock(ctx, "midhandoff-res", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}

	// Begin the leave but kill the member almost immediately: the LEAVE
	// may have reached zero, one or both survivors.
	lctx, lcancel := context.WithTimeout(ctx, time.Millisecond)
	_ = members[2].Leave(lctx)
	lcancel()
	if err := members[2].Close(); err != nil {
		t.Fatal(err)
	}

	// Both survivors must (re)acquire the resource: graceful hand-off or
	// crash recovery, the token comes back either way.
	for _, i := range []int{0, 1} {
		l, err := members[i].Lock(ctx, "midhandoff-res", hierlock.W)
		if err != nil {
			t.Fatalf("member %d after mid-handoff death: %v", i, err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 1} {
		if err := members[i].Err(); err != nil {
			t.Errorf("member %d protocol error: %v", i, err)
		}
	}
}
