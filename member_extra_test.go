package hierlock_test

// Tests for the member runtime's harder paths: cancelled upgrades,
// unlock-during-upgrade, and cancelled waits racing their own grants.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hierlock"
)

func TestUpgradeCancelledThenCompletes(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()

	u, err := c.Member(1).Lock(ctx, "acct", hierlock.U)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Member(2).Lock(ctx, "acct", hierlock.R)
	if err != nil {
		t.Fatal(err)
	}

	// The upgrade blocks on the reader; cancel it.
	cctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if err := u.Upgrade(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline, got %v", err)
	}
	// The upgrade cannot be retracted: once the reader releases it
	// completes in the background; the handle still owns the lock and a
	// plain Unlock must work and free the resource.
	if err := r.Unlock(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the background upgrade land
	if err := u.Unlock(); err != nil {
		t.Fatal(err)
	}
	// The resource must be fully free afterwards.
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	w, err := c.Member(0).Lock(wctx, "acct", hierlock.W)
	if err != nil {
		t.Fatalf("resource leaked after cancelled upgrade: %v", err)
	}
	_ = w.Unlock()
}

func TestUnlockDuringUpgradeAutoReleases(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()

	u, err := c.Member(1).Lock(ctx, "doc", hierlock.U)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Member(2).Lock(ctx, "doc", hierlock.R)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if err := u.Upgrade(cctx); err == nil {
		t.Fatal("upgrade should have timed out behind the reader")
	}
	// Unlock while the upgrade is still in flight: the member must defer
	// the release until the upgrade lands, then free everything.
	if err := u.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := r.Unlock(); err != nil {
		t.Fatal(err)
	}
	// The resource must become fully free without further client action.
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	w, err := c.Member(0).Lock(wctx, "doc", hierlock.W)
	if err != nil {
		t.Fatalf("lock leaked after unlock-during-upgrade: %v", err)
	}
	_ = w.Unlock()
}

func TestDoubleUpgradeRejected(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	u, err := c.Member(1).Lock(ctx, "x", hierlock.U)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Member(2).Lock(ctx, "x", hierlock.R)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 80*time.Millisecond)
	defer cancel()
	_ = u.Upgrade(cctx) // times out, stays in flight
	if err := u.Upgrade(ctx); err == nil {
		t.Fatal("second concurrent upgrade must be rejected")
	}
	_ = r.Unlock()
	time.Sleep(200 * time.Millisecond)
	_ = u.Unlock()
}

func TestCancelRaceStillSucceeds(t *testing.T) {
	// A context that expires around the same time the grant arrives: the
	// call must either succeed with a valid handle or fail cleanly, and
	// the resource must never leak. Run several timings to cover the
	// race window.
	c := newCluster(t, 2)
	ctx := context.Background()
	for _, d := range []time.Duration{
		time.Microsecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	} {
		cctx, cancel := context.WithTimeout(ctx, d)
		l, err := c.Member(1).Lock(cctx, "racey", hierlock.W)
		cancel()
		if err == nil {
			if err := l.Unlock(); err != nil {
				t.Fatal(err)
			}
		}
		// Whatever happened, the lock must be (or become) free.
		wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
		w, err := c.Member(0).Lock(wctx, "racey", hierlock.W)
		wcancel()
		if err != nil {
			t.Fatalf("timeout %v leaked the lock: %v", d, err)
		}
		if err := w.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemberIDAndSize(t *testing.T) {
	c := newCluster(t, 3)
	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
	for i := 0; i < 3; i++ {
		if c.Member(i).ID() != i {
			t.Fatalf("member %d reports id %d", i, c.Member(i).ID())
		}
	}
	if c.Member(0).TCPAddr() != "" {
		t.Fatal("in-process member must report no TCP address")
	}
}

func TestMemberStats(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	l1, err := c.Member(1).Lock(ctx, "stats", hierlock.R)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := c.Member(1).Lock(ctx, "stats", hierlock.R) // shared join
	if err != nil {
		t.Fatal(err)
	}
	_ = l1.Unlock()
	_ = l2.Unlock()
	// An upgrade is an acquisition of its own: the U and then the W.
	u, err := c.Member(1).Lock(ctx, "stats-upgrade", hierlock.U)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Upgrade(ctx); err != nil {
		t.Fatal(err)
	}
	_ = u.Unlock()
	st := c.Member(1).Stats()
	if st.Acquires != 4 {
		t.Errorf("acquires = %d, want 4 (R, its join, U, the upgrade)", st.Acquires)
	}
	if st.SharedJoins != 1 {
		t.Errorf("shared joins = %d, want 1", st.SharedJoins)
	}
	if st.MessagesSent == 0 {
		t.Errorf("messages = %d", st.MessagesSent)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	// Close tests cannot use newCluster: the surviving member may record a
	// send-to-closed-peer error as its first error, which the shared
	// cleanup would report as a failure.
	c, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	l0, err := c.Member(0).Lock(ctx, "res", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Unlock()

	// Client A blocks as member 1's registered waiter; client B blocks
	// behind A in slot admission for the same resource.
	resA := make(chan error, 1)
	resB := make(chan error, 1)
	go func() {
		_, err := c.Member(1).Lock(ctx, "res", hierlock.W)
		resA <- err
	}()
	time.Sleep(100 * time.Millisecond)
	go func() {
		_, err := c.Member(1).Lock(ctx, "res", hierlock.R)
		resB <- err
	}()
	time.Sleep(100 * time.Millisecond)

	if err := c.Member(1).Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for name, ch := range map[string]chan error{"waiter": resA, "slot-blocked": resB} {
		select {
		case err := <-ch:
			if !errors.Is(err, hierlock.ErrClosed) {
				t.Errorf("%s client: got %v, want ErrClosed", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s client still blocked after Close", name)
		}
	}
	// New operations on the closed member fail fast.
	if _, err := c.Member(1).Lock(ctx, "other", hierlock.W); !errors.Is(err, hierlock.ErrClosed) {
		t.Errorf("post-close Lock: got %v, want ErrClosed", err)
	}
}

func TestIdleLockEviction(t *testing.T) {
	// Touching N distinct resources must not grow the per-lock table
	// without bound: idle entries are swept once a stripe passes its
	// threshold, so the resident set stays far below N.
	c := newCluster(t, 1)
	ctx := context.Background()
	m := c.Member(0)

	const n = 10000
	for i := 0; i < n; i++ {
		l, err := m.Lock(ctx, fmt.Sprintf("res-%d", i), hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.TrackedLocks(); got > 2048 {
		t.Errorf("tracked locks = %d after %d idle resources, want <= 2048", got, n)
	}

	// A held lock must survive a full sweep; everything idle must go.
	held, err := m.Lock(ctx, "pinned", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	m.EvictIdle()
	if got := m.TrackedLocks(); got != 1 {
		t.Errorf("tracked locks = %d after sweep with one held lock, want 1", got)
	}
	if err := held.Unlock(); err != nil {
		t.Fatal(err)
	}
	m.EvictIdle()
	if got := m.TrackedLocks(); got != 0 {
		t.Errorf("tracked locks = %d after final sweep, want 0", got)
	}
}

func TestEvictionPreservesProtocolState(t *testing.T) {
	// An engine that is not at its initial protocol state (the token moved)
	// must never be evicted, and locking must keep working across sweeps.
	c := newCluster(t, 2)
	ctx := context.Background()

	l, err := c.Member(1).Lock(ctx, "tok", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	// Member 1 now holds the idle token; member 0's engine points at it.
	// Neither is at initial state, so neither entry may be evicted.
	c.Member(0).EvictIdle()
	c.Member(1).EvictIdle()
	if got := c.Member(1).TrackedLocks(); got != 1 {
		t.Errorf("member 1 tracked locks = %d, want 1 (idle token must stay)", got)
	}
	if got := c.Member(0).TrackedLocks(); got != 1 {
		t.Errorf("member 0 tracked locks = %d, want 1 (re-routed parent must stay)", got)
	}
	// The lock still works after the sweeps, from both sides.
	for i := 0; i < 2; i++ {
		l, err := c.Member(i).Lock(ctx, "tok", hierlock.W)
		if err != nil {
			t.Fatalf("member %d lock after sweep: %v", i, err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAbandonedGrantRacesClose(t *testing.T) {
	// A waiter abandons (context cancelled), its grant arrives anyway, and
	// the member closes — all at roughly the same time. Whatever
	// interleaving wins, the call must return nil, Canceled, or ErrClosed,
	// and nothing may deadlock. Run many rounds to cover the window.
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		c, err := hierlock.NewCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		l0, err := c.Member(0).Lock(ctx, "r", hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		res := make(chan error, 1)
		go func() {
			l, err := c.Member(1).Lock(cctx, "r", hierlock.W)
			if err == nil {
				err = l.Unlock()
			}
			res <- err
		}()
		time.Sleep(time.Duration(i%5) * time.Millisecond)
		cancel()
		_ = l0.Unlock() // grant flies toward member 1
		go c.Member(1).Close()
		select {
		case err := <-res:
			if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, hierlock.ErrClosed) {
				t.Fatalf("round %d: unexpected error %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: client deadlocked", i)
		}
		_ = c.Close()
	}
}
