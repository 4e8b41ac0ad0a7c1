//go:build !race

package session_test

// Allocation guard for the uncontended exclusive path through the
// session tier. A resident Member.Lock/Unlock pair allocates one object,
// the 32-byte Lock handle (member_alloc_test.go in the root package); the
// tier adds none — its waiting count is a map entry, and deleting and
// re-inserting a key reuses the map's storage. The race detector's
// instrumentation defeats testing.AllocsPerRun, so this compiles out
// under -race.

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
	const budget = 1 // BenchmarkSessionAcquireRelease allocs/op
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
