package session_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
	"hierlock/internal/session"
)

func newManager(t testing.TB, cfg session.Config) (*session.Manager, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg.Registry = reg
	m := session.NewManager(cfg)
	t.Cleanup(m.Close)
	return m, reg
}

func counter(reg *metrics.Registry, name string) uint64 {
	return reg.Counter(name, "", nil).Value()
}

// unlockFunc is a session.Handle whose Unlock is the function.
type unlockFunc func() error

func (f unlockFunc) Unlock() error { return f() }

// held builds a Held entry whose release bumps released and returns
// err (released is atomic: the lease sweeper releases from its own
// goroutine).
func held(key string, released *atomic.Int64, err error) *session.Held {
	return session.NewHeld(key, "W", hierlock.FenceToken{}, false, unlockFunc(func() error {
		released.Add(1)
		return err
	}))
}

// TestLeaseExpiryReapsLocks: a named session that stops heartbeating is
// reaped by the sweeper within a small multiple of its TTL, and every
// lock it held is force-released.
func TestLeaseExpiryReapsLocks(t *testing.T) {
	mgr, reg := newManager(t, session.Config{
		DefaultTTL:    50 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	s, adopted, err := mgr.Open("doomed", 0)
	if err != nil || adopted {
		t.Fatalf("open: adopted=%v err=%v", adopted, err)
	}
	var released atomic.Int64
	if err := s.AddHeld(held("a", &released, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHeld(held("b", &released, nil)); err != nil {
		t.Fatal(err)
	}
	mgr.Detach(s) // client dies: connection drops, no further heartbeats

	deadline := time.Now().Add(2 * time.Second)
	for released.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("locks never reaped (released = %d)", released.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !s.Expired() {
		t.Fatal("session reaped but not marked expired")
	}
	if got := counter(reg, metrics.MetricSessionsExpired); got != 1 {
		t.Fatalf("expired counter = %d", got)
	}
	if got := counter(reg, metrics.MetricSessionLocksReaped); got != 2 {
		t.Fatalf("reaped counter = %d", got)
	}
	// The name is free again: a new open under it is a fresh session.
	s2, adopted, err := mgr.Open("doomed", 0)
	if err != nil || adopted {
		t.Fatalf("reopen after reap: adopted=%v err=%v", adopted, err)
	}
	if s2.Len() != 0 {
		t.Fatalf("fresh session has %d holds", s2.Len())
	}
}

// TestRenewalPreventsExpiry: heartbeats hold the lease open well past
// its TTL; AddHeld after an explicit expiry fails with ErrExpired so a
// racing grant is released, not leaked.
func TestRenewalPreventsExpiry(t *testing.T) {
	mgr, reg := newManager(t, session.Config{
		DefaultTTL:    200 * time.Millisecond,
		SweepInterval: 20 * time.Millisecond,
	})
	s, _, err := mgr.Open("steady", 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Detach(s) // detached but heartbeating, e.g. via a side channel
	for i := 0; i < 6; i++ {
		time.Sleep(50 * time.Millisecond)
		if _, err := s.Renew(); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if s.Expired() {
		t.Fatal("heartbeating session was reaped")
	}
	if got := counter(reg, metrics.MetricSessionRenewals); got != 6 {
		t.Fatalf("renewals counter = %d", got)
	}
	if n := mgr.CloseSession(s); n != 0 {
		t.Fatalf("close released %d", n)
	}
	if err := s.AddHeld(held("late", new(atomic.Int64), nil)); !errors.Is(err, session.ErrExpired) {
		t.Fatalf("AddHeld after close: %v, want ErrExpired", err)
	}
}

// TestAdoption: a reconnecting client re-adopts its detached session,
// keeping the holds; adopting an attached session is refused.
func TestAdoption(t *testing.T) {
	mgr, reg := newManager(t, session.Config{DefaultTTL: time.Minute})
	s, _, err := mgr.Open("worker", 0)
	if err != nil {
		t.Fatal(err)
	}
	var released atomic.Int64
	if err := s.AddHeld(held("a", &released, nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.Open("worker", 0); !errors.Is(err, session.ErrAttached) {
		t.Fatalf("double attach: %v, want ErrAttached", err)
	}
	mgr.Detach(s)
	s2, adopted, err := mgr.Open("worker", 0)
	if err != nil || !adopted {
		t.Fatalf("re-open: adopted=%v err=%v", adopted, err)
	}
	if s2 != s {
		t.Fatal("adoption returned a different session")
	}
	if released.Load() != 0 || s2.Len() != 1 {
		t.Fatalf("holds after adoption: released=%d len=%d", released.Load(), s2.Len())
	}
	if got := counter(reg, metrics.MetricSessionsAdopted); got != 1 {
		t.Fatalf("adopted counter = %d", got)
	}
}

// TestReleaseFailureRetainsEntry is the regression test for the unlock
// leak: an entry must leave the session only when its release actually
// disposed of the handle. A transient failure re-inserts it so session
// teardown retries; a handle-already-dead failure drops it.
func TestReleaseFailureRetainsEntry(t *testing.T) {
	mgr, _ := newManager(t, session.Config{DefaultTTL: time.Minute})
	s := mgr.Anonymous()

	calls := 0
	flaky := session.NewHeld("k", "W", hierlock.FenceToken{}, false, unlockFunc(func() error {
		calls++
		if calls == 1 {
			return errors.New("transient member failure")
		}
		return nil
	}))
	if err := s.AddHeld(flaky); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("k"); err == nil {
		t.Fatal("first release should fail")
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("entry dropped after failed release — the lock would leak")
	}
	if n := s.ReleaseAll(); n != 1 || calls != 2 {
		t.Fatalf("teardown: drained=%d calls=%d", n, calls)
	}

	// A handle that is already dead must NOT be re-inserted.
	dead := session.NewHeld("d", "W", hierlock.FenceToken{}, false, unlockFunc(func() error {
		return hierlock.ErrReleased
	}))
	if err := s.AddHeld(dead); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("d"); !errors.Is(err, hierlock.ErrReleased) {
		t.Fatalf("dead release: %v", err)
	}
	if _, ok := s.Get("d"); ok {
		t.Fatal("dead handle re-inserted")
	}
	if err := s.Release("d"); !errors.Is(err, session.ErrNotHeld) {
		t.Fatalf("double release: %v, want ErrNotHeld", err)
	}
}

// TestSnapshot: the introspection view lists sessions and holds sorted,
// with lease arithmetic relative to the injected clock.
func TestSnapshot(t *testing.T) {
	now := time.Unix(1000, 0)
	mgr, _ := newManager(t, session.Config{
		DefaultTTL: time.Minute,
		Now:        func() time.Time { return now },
	})
	s, _, err := mgr.Open("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.AddHeld(session.NewHeld("z", "W", hierlock.FenceToken{Epoch: 1, Seq: 7}, true, unlockFunc(func() error { return nil })))
	_ = s.AddHeld(session.NewHeld("a", "R", hierlock.FenceToken{}, false, unlockFunc(func() error { return nil })))
	if _, _, err := mgr.Open("a", 30*time.Second); err != nil {
		t.Fatal(err)
	}

	snap := mgr.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[0].TTL != 30*time.Second || snap[0].ExpiresIn != 30*time.Second {
		t.Fatalf("lease arithmetic: %+v", snap[0])
	}
	locks := snap[1].Locks
	if len(locks) != 2 || locks[0].Key != "a" || locks[1].Key != "z" {
		t.Fatalf("holds order: %+v", locks)
	}
	if locks[0].Fence != "" || locks[1].Fence != "1.7" {
		t.Fatalf("fence rendering: %+v", locks)
	}
}
