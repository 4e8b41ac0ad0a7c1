package hierlock_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
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

// TestTCPMemberRejectsSelfPeer pins that Peers lists the other members
// only. A member whose peer map names itself would count itself twice in
// its node set, so a three-member cluster would take its recovery
// majority over four and never recover from one crash.
func TestTCPMemberRejectsSelfPeer(t *testing.T) {
	for _, peers := range []map[int]string{
		{0: "127.0.0.1:1", 1: "127.0.0.1:2", 2: "127.0.0.1:3"},
		{-1: "127.0.0.1:1", 1: "127.0.0.1:2"},
	} {
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID: 0, ListenAddr: "127.0.0.1:0", Peers: peers,
		})
		if err == nil {
			_ = m.Close()
			t.Fatalf("Peers %v accepted for member 0", peers)
		}
	}
}

// TestTCPMemberBareConfigBeacons: a member with every timing field zero
// and an advertised address starts, beacons its idle peer (the default
// interval, 1 s: no lock traffic, so every frame it sends is a beacon)
// and reports the advertised address as its own.
func TestTCPMemberBareConfigBeacons(t *testing.T) {
	t.Parallel()
	addrs := reserveAddrs(t, 2)
	reg := metrics.NewRegistry()
	members := make([]*hierlock.Member, 2)
	for i := range members {
		cfg := hierlock.TCPMemberConfig{ID: i, ListenAddr: addrs[i], Peers: map[int]string{1 - i: addrs[1-i]}}
		if i == 0 {
			cfg.AdvertiseAddr = addrs[0]
			cfg.Telemetry = &hierlock.Telemetry{Registry: reg}
		}
		m, err := hierlock.NewTCPMember(cfg)
		if err != nil {
			t.Fatalf("member %d with a bare config: %v", i, err)
		}
		t.Cleanup(func() { _ = m.Close() })
		members[i] = m
	}
	for _, mi := range members[0].Members() {
		if mi.Self && mi.Addr != addrs[0] {
			t.Fatalf("member 0 reports itself at %q, want the advertised %q", mi.Addr, addrs[0])
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for promSum(scrape(t, reg), metrics.MetricTransportFrames, []string{`direction="sent"`}) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("member 0 sent no beacon in 10 s")
		}
		time.Sleep(50 * time.Millisecond)
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
// crash-recovery runtime enabled (recoveryTCPConfig's aggressive
// timings) on reserved loopback addresses, so a crashed member can come
// back on its own. tune, when non-nil, adjusts member i's config before
// it boots (telemetry, a data dir, other timings). Crash tests Close
// members themselves; whatever is in the slice at cleanup is closed.
func newRecoveryTCPCluster(t *testing.T, n int, tune func(i int, cfg *hierlock.TCPMemberConfig)) []*hierlock.Member {
	t.Helper()
	addrs := reserveAddrs(t, n)
	members := make([]*hierlock.Member, n)
	t.Cleanup(func() {
		for _, m := range members {
			if m != nil {
				_ = m.Close()
			}
		}
	})
	for i := range members {
		members[i] = bootRecoveryMember(t, i, addrs, tune)
	}
	return members
}

// bootRecoveryMember starts (or restarts, on its old address) member id
// of a recovery cluster on addrs, tuned as newRecoveryTCPCluster tunes it.
func bootRecoveryMember(t *testing.T, id int, addrs map[int]string, tune func(i int, cfg *hierlock.TCPMemberConfig)) *hierlock.Member {
	t.Helper()
	peers := make(map[int]string, len(addrs)-1)
	for j, a := range addrs {
		if j != id {
			peers[j] = a
		}
	}
	cfg := recoveryTCPConfig(id, addrs[id], peers)
	if tune != nil {
		tune(id, &cfg)
	}
	m, err := hierlock.NewTCPMember(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTCPCrashRecovery: a member crashes while holding a W lock (and
// therefore the lock's token). Until a confirmation the lock hangs (see
// TestTCPHolderCrashWaitsForConfirmation); the survivors confirm the crash, regenerate the token at a fresh epoch,
// and both serve their acquisitions. The survivors' Locks park on the
// dead holder until the reseed, so their scrapes count grants of outcome
// "recovery".
func TestTCPCrashRecovery(t *testing.T) {
	regs := []*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry()}
	members := newRecoveryTCPCluster(t, 3, func(i int, cfg *hierlock.TCPMemberConfig) {
		if i < len(regs) {
			cfg.Telemetry = &hierlock.Telemetry{Registry: regs[i]}
		}
	})
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
	recovered := 0.0
	for _, reg := range regs {
		recovered += promSum(scrape(t, reg), metrics.MetricOpLatency+"_count", []string{`outcome="recovery"`})
	}
	if recovered < 1 {
		t.Errorf("the survivors counted %v grants of outcome recovery, want at least 1", recovered)
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
	members := newRecoveryTCPCluster(t, 3, nil)
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

// TestTCPLostWaitCountsOutcome: a Lock that outlives RecoveryTimeout is
// one hierlock_op_latency_seconds sample of outcome "lost", staged in its
// stripe like every other sample and in no other family, so a scrape's
// token_hops_count still equals its granted operations. The lock serves
// member 0 again once member 1 lets it go (locally: the abandoned
// request's grant, released at once, brought the token along).
func TestTCPLostWaitCountsOutcome(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	reg := metrics.NewRegistry()
	members := make([]*hierlock.Member, 2)
	for i := range members {
		cfg := hierlock.TCPMemberConfig{
			ID: i, ListenAddr: addrs[i], Peers: map[int]string{1 - i: addrs[1-i]},
			HeartbeatInterval: 25 * time.Millisecond,
			RecoveryTimeout:   300 * time.Millisecond,
		}
		if i == 0 {
			cfg.Telemetry = &hierlock.Telemetry{Registry: reg}
		}
		m, err := hierlock.NewTCPMember(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		members[i] = m
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	counts := func() (lost, granted, hops float64) {
		text := scrape(t, reg)
		return promSum(text, metrics.MetricOpLatency+"_count", []string{`op="lock"`, `outcome="lost"`}),
			grantedOps(text), promSum(text, metrics.MetricTokenHops+"_count", nil)
	}

	held, err := members[1].Lock(ctx, "lost-res", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := members[0].Lock(ctx, "lost-res", hierlock.W); !errors.Is(err, hierlock.ErrLockLost) {
		t.Fatalf("Lock behind a hold longer than RecoveryTimeout: %v, want ErrLockLost", err)
	}
	if lost, granted, hops := counts(); lost != 1 || granted != 0 || hops != 0 {
		t.Fatalf("after the lost wait: lost %v, granted %v, token_hops_count %v; want 1, 0, 0", lost, granted, hops)
	}

	if err := held.Unlock(); err != nil {
		t.Fatal(err)
	}
	l, err := members[0].Lock(ctx, "lost-res", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if lost, granted, hops := counts(); lost != 1 || granted != 1 || hops != granted {
		t.Fatalf("after the next grant: lost %v, granted %v, token_hops_count %v; want 1, 1, 1", lost, granted, hops)
	}
	for i, m := range members {
		if err := m.Err(); err != nil {
			t.Errorf("member %d protocol error: %v", i, err)
		}
	}
}

// TestTCPRecoveryTimeoutWithoutHeartbeat: RecoveryTimeout bounds a blocking
// Lock on members left at the default beacon interval too, whose detector
// confirms nothing for 8 s. Member 1 holds the lock past member 0's
// RecoveryTimeout, so member 0's Lock fails with ErrLockLost long before
// its context expires.
func TestTCPRecoveryTimeoutWithoutHeartbeat(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := make([]*hierlock.Member, 2)
	for i := range members {
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID: i, ListenAddr: addrs[i], Peers: map[int]string{1 - i: addrs[1-i]},
			RecoveryTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		members[i] = m
	}
	held, err := members[1].Lock(context.Background(), "timeout-res", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err = members[0].Lock(ctx, "timeout-res", hierlock.W)
	if !errors.Is(err, hierlock.ErrLockLost) {
		t.Fatalf("Lock behind a hold longer than RecoveryTimeout: %v, want ErrLockLost", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("ErrLockLost after %v, want about RecoveryTimeout (300ms)", d)
	}
}
