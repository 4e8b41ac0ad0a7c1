package hierlock_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierlock"
)

// newTCPCluster boots n members on loopback TCP with ":0" listeners,
// wiring the full peer mesh.
func newTCPCluster(t *testing.T, n int) []*hierlock.Member {
	t.Helper()
	members := make([]*hierlock.Member, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID:         i,
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
		addrs[i] = m.TCPAddr()
	}
	// Peers are discovered lazily by the transport, so completing the
	// maps after creation is fine: recreate members would be cleaner in
	// production (known ports), but for tests we re-dial via a second
	// pass using the exported config path.
	t.Cleanup(func() {
		for _, m := range members {
			if err := m.Err(); err != nil {
				t.Errorf("member %d protocol error: %v", m.ID(), err)
			}
			_ = m.Close()
		}
	})
	// Rebuild with full peer maps (ports now known).
	for i := 0; i < n; i++ {
		_ = members[i].Close()
	}
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j, a := range addrs {
			if j != i {
				peers[j] = a
			}
		}
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID:         i,
			ListenAddr: addrs[i],
			Peers:      peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
	}
	return members
}

// TestTCPReliableFieldIgnored: TCPMemberConfig.Reliable selects nothing.
// A member built with it false and one with it true speak the same link
// and pass a token each way.
func TestTCPReliableFieldIgnored(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := make([]*hierlock.Member, 2)
	for i := range members {
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID: i, ListenAddr: addrs[i], Peers: map[int]string{1 - i: addrs[1-i]},
			Reliable: i == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		members[i] = m
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, i := range []int{1, 0} {
		l, err := members[i].Lock(ctx, "res", hierlock.W)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range members {
		if err := m.Err(); err != nil {
			t.Fatalf("member %d protocol error: %v", i, err)
		}
	}
}

func TestTCPClusterMutualExclusion(t *testing.T) {
	members := newTCPCluster(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var inCS atomic.Int32
	var completed atomic.Int32
	var wg sync.WaitGroup
	for i := range members {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < 5; op++ {
				l, err := members[i].Lock(ctx, "tcp-excl", hierlock.W)
				if err != nil {
					t.Errorf("member %d: %v", i, err)
					return
				}
				if n := inCS.Add(1); n != 1 {
					t.Errorf("mutual exclusion violated over TCP: %d in CS", n)
				}
				time.Sleep(time.Millisecond)
				inCS.Add(-1)
				if err := l.Unlock(); err != nil {
					t.Errorf("member %d unlock: %v", i, err)
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if completed.Load() != 20 {
		t.Fatalf("completed %d/20 ops", completed.Load())
	}
}

func TestTCPClusterHierarchical(t *testing.T) {
	members := newTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl, err := members[i].LockPath(ctx, []string{"inv", fmt.Sprintf("bin%d", i)}, hierlock.W)
			if err != nil {
				errs <- err
				return
			}
			time.Sleep(20 * time.Millisecond)
			if err := pl.Unlock(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// newRecoveryTCPCluster boots n members with the failure detector and
// crash-recovery runtime enabled (aggressive timings for test speed).
// Members are not auto-closed: crash tests close them explicitly.
func newRecoveryTCPCluster(t *testing.T, n int) []*hierlock.Member {
	t.Helper()
	addrs := make(map[int]string, n)
	boot := make([]*hierlock.Member, n)
	for i := 0; i < n; i++ {
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID: i, ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		boot[i] = m
		addrs[i] = m.TCPAddr()
	}
	for _, m := range boot {
		_ = m.Close()
	}
	members := make([]*hierlock.Member, n)
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j, a := range addrs {
			if j != i {
				peers[j] = a
			}
		}
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID:                i,
			ListenAddr:        addrs[i],
			Peers:             peers,
			RedialBackoff:     20 * time.Millisecond,
			HeartbeatInterval: 25 * time.Millisecond,
			ConfirmAfter:      500 * time.Millisecond,
			ProbeTimeout:      150 * time.Millisecond,
			RecoveryTimeout:   20 * time.Second,
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

// TestTCPCrashRecovery: a member crashes while holding a W lock (and
// therefore the lock's token). Without recovery the lock would hang
// forever; with the detector and token regeneration enabled, the
// survivors confirm the crash, regenerate the token at a fresh epoch,
// and both serve their acquisitions.
func TestTCPCrashRecovery(t *testing.T) {
	members := newRecoveryTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Member 2 takes the token into the crash.
	if _, err := members[2].Lock(ctx, "crash-res", hierlock.W); err != nil {
		t.Fatal(err)
	}
	// Crash it: the hold is never released, the token and any queued
	// requests die with the process.
	if err := members[2].Close(); err != nil {
		t.Fatal(err)
	}

	// Both survivors must still be able to serve W acquisitions, in
	// mutual exclusion, once recovery has regenerated the token.
	for _, i := range []int{0, 1} {
		l, err := members[i].Lock(ctx, "crash-res", hierlock.W)
		if err != nil {
			t.Fatalf("member %d acquire after crash: %v", i, err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatalf("member %d unlock after crash: %v", i, err)
		}
	}
	// The regenerator is the lowest surviving ID.
	if r := members[0].RecoveryRounds(); r == 0 {
		t.Error("member 0 completed no recovery rounds")
	}
	for _, i := range []int{0, 1} {
		if err := members[i].Err(); err != nil {
			t.Errorf("member %d protocol error: %v", i, err)
		}
	}
}

// TestTCPRecoveryQuietWithoutCrash: enabling the detector on a healthy
// cluster must not trigger recovery rounds or perturb normal operation.
func TestTCPRecoveryQuietWithoutCrash(t *testing.T) {
	members := newRecoveryTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for round := 0; round < 3; round++ {
		for _, m := range members {
			l, err := m.Lock(ctx, "quiet-res", hierlock.W)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Unlock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Hold long enough for several confirm windows to elapse.
	time.Sleep(time.Second)
	for _, m := range members {
		if r := m.RecoveryRounds(); r != 0 {
			t.Errorf("member %d ran %d recovery rounds on a healthy cluster", m.ID(), r)
		}
		if err := m.Err(); err != nil {
			t.Errorf("member %d protocol error: %v", m.ID(), err)
		}
	}
}
