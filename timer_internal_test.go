package hierlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTimerTestMember boots a standalone loopback member: enough Member
// machinery for the tracked-timer tests, no peers.
func newTimerTestMember(t *testing.T) *Member {
	t.Helper()
	m, err := NewTCPMember(TCPMemberConfig{ID: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// TestCloseWaitsForInflightRecoveryRetry is the regression test for the
// untracked recovery-retry timers: pre-fix, afterRecovery armed a bare
// time.AfterFunc, so a retry callback that had already passed the
// closed check kept running — under the manager mutex, against a
// transport and journal that Close was concurrently tearing down. With
// tracking, Close must block until every in-flight retry callback has
// finished. Pre-fix code returns from Close while the callback is still
// asleep and the final assertion fails.
func TestCloseWaitsForInflightRecoveryRetry(t *testing.T) {
	m := newTimerTestMember(t)

	started := make(chan struct{})
	var finished atomic.Bool
	m.afterRecovery(time.Millisecond, func() {
		close(started)
		// Simulate a slow retry (probe fan-out, journal append) racing
		// the teardown.
		time.Sleep(150 * time.Millisecond)
		finished.Store(true)
	})

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("recovery retry never fired")
	}
	// The callback is now inside fn, holding mgrMu. Close must not
	// return until it completes.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("Close returned while a recovery-retry callback was still running")
	}
}

// TestClosedMemberRunsNoTrackedCallbacks: timers armed before Close and
// not yet fired are cancelled, and scheduling after Close is a no-op.
func TestClosedMemberRunsNoTrackedCallbacks(t *testing.T) {
	m := newTimerTestMember(t)

	var ran atomic.Int32
	m.afterTracked(50*time.Millisecond, func() { ran.Add(1) })
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m.afterTracked(time.Millisecond, func() { ran.Add(1) })
	m.afterRecovery(time.Millisecond, func() { ran.Add(1) })
	time.Sleep(200 * time.Millisecond)
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tracked callbacks ran across Close", n)
	}
}

// TestCloseTimerStress races many schedulers against Close under the
// race detector: arbitrary interleavings of arming, firing, and
// stopping must neither leak a callback past Close nor double-count
// the tracking wait group (a Done imbalance panics).
func TestCloseTimerStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		m := newTimerTestMember(t)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		var lateRun atomic.Bool
		var closed atomic.Bool
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					d := time.Duration(i%3) * time.Millisecond
					m.mgrMu.Lock() // afterTracked's callers hold it
					m.afterTracked(d, func() {
						if closed.Load() {
							lateRun.Store(true)
						}
					})
					m.mgrMu.Unlock()
					time.Sleep(time.Duration(i%2) * time.Millisecond)
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		// stopTimers holds mgrMu while sweeping, then waits; callbacks
		// started before the sweep finish first.
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		close(stop)
		wg.Wait()
		if lateRun.Load() {
			t.Fatal("a tracked callback ran after Close returned")
		}
	}
}
