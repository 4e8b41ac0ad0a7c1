package session_test

import (
	"context"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/session"
)

// BenchmarkSessionAcquireRelease is the uncontended exclusive path
// through the admission queue: one client takes and releases a W lock on
// a resident key of a single-member cluster, so the client leads every
// time and the figure is the session tier's cost on top of
// Member.Lock/Unlock (BenchmarkMemberMultiLockContended/goroutines-1 in
// the root package is the same loop without it).
func BenchmarkSessionAcquireRelease(b *testing.B) {
	mgr, m, _ := newMemberManager(b, session.Config{DefaultTTL: time.Minute})
	acq := acquirer(m, "bench", hierlock.W)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _, err := mgr.Acquire(ctx, "bench", hierlock.W, acq)
		if err != nil {
			b.Fatal(err)
		}
		if err := mgr.Release("bench", hierlock.W, l); err != nil {
			b.Fatal(err)
		}
	}
}
