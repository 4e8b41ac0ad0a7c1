//go:build !race

package session_test

// Allocation guard for the uncontended exclusive path through the
// admission queue. Member.Lock/Unlock costs 2 objects per operation
// (member_alloc_test.go in the root package); the session tier may add
// one, the queue's table entry — a client that finds the queue idle
// leads inline, with no waiter, channel, context or goroutine of its
// own. The race detector's instrumentation defeats
// testing.AllocsPerRun, so this compiles out under -race.

import (
	"context"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/session"
)

func TestSessionAcquireReleaseAllocs(t *testing.T) {
	mgr, m, _ := newMemberManager(t, session.Config{DefaultTTL: time.Minute})
	acq := acquirer(m, "alloc-guard", hierlock.W)
	ctx := context.Background()
	const budget = 3 // BenchmarkSessionAcquireRelease allocs/op
	got := testing.AllocsPerRun(500, func() {
		l, _, err := mgr.Acquire(ctx, "alloc-guard", hierlock.W, acq)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Release("alloc-guard", hierlock.W, l); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("uncontended Acquire/Release allocates %.1f objects/op, budget %d", got, budget)
	}
}
