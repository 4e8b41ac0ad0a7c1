//go:build !race

package lockserver_test

// Allocation guard for the line server's hot pair. The race detector's
// instrumentation defeats testing.AllocsPerRun, so this compiles out
// under -race.

import "testing"

// TestLineLockUnlockAllocs: a LOCK k W / UNLOCK k pair allocates only
// what the session keeps while the lock is held — the member's handle,
// the session's Held entry and the resource name it is keyed by. The
// line is parsed where the reader buffered it and the reply appended to
// the connection's own buffer.
func TestLineLockUnlockAllocs(t *testing.T) {
	c := pipeConn(t)
	buf := make([]byte, 256)
	const budget = 3 // BenchmarkServeConnLockUnlock allocs/op
	got := testing.AllocsPerRun(500, func() { lockUnlock(t, c, buf) })
	if got > budget {
		t.Errorf("LOCK/UNLOCK over the line protocol allocates %.1f objects/pair, budget %d", got, budget)
	}
}
