package session_test

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
	"hierlock/internal/session"
)

// newMemberManager wires a Manager to a real single-member cluster and
// returns an Acquirer bound to Member.Lock on the given resource/mode.
func newMemberManager(t testing.TB, cfg session.Config) (*session.Manager, *hierlock.Member, *metrics.Registry) {
	t.Helper()
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	mgr, reg := newManager(t, cfg)
	return mgr, cl.Member(0), reg
}

// waitEnqueued blocks until n clients have entered admission queues.
func waitEnqueued(t testing.TB, reg *metrics.Registry, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, metrics.MetricAdmissionEnqueued) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d clients enqueued", counter(reg, metrics.MetricAdmissionEnqueued), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// gauge reads a scrape-time gauge off the registry's exposition.
func gauge(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("gauge %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("gauge %s not exported", name)
	return 0
}

// waitGoroutines fails the test unless the process settles back to at
// most want goroutines within a grace period (abandoned member-level
// requests release asynchronously).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func acquirer(m *hierlock.Member, res string, mode hierlock.Mode) session.Acquirer {
	return func(ctx context.Context) (*hierlock.Lock, error) {
		return m.Lock(ctx, res, mode)
	}
}

// TestAdmissionFanout: N clients contend for one W lock through the
// admission queue. Exactly one member-level acquisition happens; every
// other grant is a local hand-off, each stamped with a strictly larger
// fencing token.
func TestAdmissionFanout(t *testing.T) {
	const n = 16
	mgr, m, reg := newMemberManager(t, session.Config{DefaultTTL: time.Minute})
	acq := acquirer(m, "hot", hierlock.W)

	// Seed the queue with one real hold, then park n clients behind it
	// before any grant can move — the whole fan-out must then ride on
	// this single member-level acquisition.
	l0, f0, err := mgr.Acquire(context.Background(), "hot", hierlock.W, acq)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fences := []hierlock.FenceToken{f0}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, f, err := mgr.Acquire(context.Background(), "hot", hierlock.W, acq)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			mu.Lock()
			fences = append(fences, f)
			mu.Unlock()
			if err := mgr.Release("hot", hierlock.W, l); err != nil {
				t.Errorf("release: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for counter(reg, metrics.MetricAdmissionEnqueued) < n+1 {
		if time.Now().After(deadline) {
			t.Fatal("clients never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := mgr.Release("hot", hierlock.W, l0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(fences) != n+1 {
		t.Fatalf("grants = %d, want %d", len(fences), n+1)
	}
	for i := 1; i < len(fences); i++ {
		if !fences[i-1].Less(fences[i]) {
			t.Fatalf("fence %d not above predecessor: %s then %s", i, fences[i-1], fences[i])
		}
	}
	if got := counter(reg, metrics.MetricAdmissionLeaderAcquires); got != 1 {
		t.Fatalf("leader acquires = %d, want 1 (O(1) protocol traffic)", got)
	}
	if got := counter(reg, metrics.MetricAdmissionHandoffs); got != n {
		t.Fatalf("handoffs = %d, want %d", got, n)
	}
	if got := counter(reg, metrics.MetricAdmissionEnqueued); got != n+1 {
		t.Fatalf("enqueued = %d, want %d", got, n+1)
	}
	// The final release had no takers: the member-level hold is gone.
	if l, err := m.Lock(context.Background(), "hot", hierlock.W); err != nil {
		t.Fatalf("lock after drain: %v", err)
	} else {
		_ = l.Unlock()
	}
}

// TestAdmissionBusyCap: beyond MaxWaiters queued clients, acquisitions
// are refused with ErrBusy instead of growing the queue without bound.
// The cap and the waiting gauge count every client that has entered the
// queue and holds nothing yet — the parked ones and the one leading —
// so the N+1-th bounces whether the hold is checked out or the head is
// still mid-acquisition.
func TestAdmissionBusyCap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		midLead bool
	}{
		{"hold checked out", false},
		{"head mid-lead", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const maxWaiters = 2
			mgr, m, reg := newMemberManager(t, session.Config{
				DefaultTTL: time.Minute,
				MaxWaiters: maxWaiters,
			})
			// Mid-lead, the first member-level acquisition waits at the gate.
			var calls atomic.Int32
			gate := make(chan struct{})
			acq := func(ctx context.Context) (*hierlock.Lock, error) {
				if tc.midLead && calls.Add(1) == 1 {
					<-gate
				}
				return m.Lock(ctx, "hot", hierlock.W)
			}

			// Checked out: a first client holds the lock and no longer counts.
			var l *hierlock.Lock
			entered := uint64(maxWaiters)
			if !tc.midLead {
				var err error
				if l, _, err = mgr.Acquire(context.Background(), "hot", hierlock.W, acq); err != nil {
					t.Fatal(err)
				}
				entered++
			}
			// maxWaiters more fill the queue.
			results := make(chan error, maxWaiters)
			for i := 0; i < maxWaiters; i++ {
				go func() {
					ql, _, err := mgr.Acquire(context.Background(), "hot", hierlock.W, acq)
					if err == nil {
						err = mgr.Release("hot", hierlock.W, ql)
					}
					results <- err
				}()
			}
			// Wait until all are in, then the next one must bounce.
			waitEnqueued(t, reg, entered)
			if got := gauge(t, reg, metrics.MetricAdmissionWaiting); got != maxWaiters {
				t.Fatalf("waiting gauge = %v, want %d", got, maxWaiters)
			}
			if _, _, err := mgr.Acquire(context.Background(), "hot", hierlock.W, acq); !errors.Is(err, session.ErrBusy) {
				t.Fatalf("over-cap acquire: %v, want ErrBusy", err)
			}
			if got := counter(reg, metrics.MetricAdmissionBusy); got != 1 {
				t.Fatalf("busy counter = %d", got)
			}
			if tc.midLead {
				close(gate)
			} else if err := mgr.Release("hot", hierlock.W, l); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < maxWaiters; i++ {
				if err := <-results; err != nil {
					t.Fatalf("queued client %d: %v", i, err)
				}
			}
			if got := gauge(t, reg, metrics.MetricAdmissionWaiting); got != 0 {
				t.Fatalf("waiting gauge after drain = %v, want 0", got)
			}
		})
	}
}

// TestAdmissionCancel: a queued client that gives up gets its context
// error, and the hold still reaches the remaining waiters.
func TestAdmissionCancel(t *testing.T) {
	mgr, m, reg := newMemberManager(t, session.Config{DefaultTTL: time.Minute})
	acq := acquirer(m, "hot", hierlock.W)

	l, _, err := mgr.Acquire(context.Background(), "hot", hierlock.W, acq)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, _, err := mgr.Acquire(ctx, "hot", hierlock.W, acq)
		canceled <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, metrics.MetricAdmissionEnqueued) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire: %v", err)
	}
	// The canceled waiter left the queue; release finds no takers and
	// the lock frees for direct acquisition.
	if err := mgr.Release("hot", hierlock.W, l); err != nil {
		t.Fatal(err)
	}
	l2, err := m.Lock(context.Background(), "hot", hierlock.W)
	if err != nil {
		t.Fatalf("lock after cancel+release: %v", err)
	}
	_ = l2.Unlock()
}

// TestAdmissionLeaderError: when every member-level acquisition fails
// terminally, the queue drains — each waiter gets the failure from its
// own leader attempt rather than hanging.
func TestAdmissionLeaderError(t *testing.T) {
	mgr, _ := newManager(t, session.Config{DefaultTTL: time.Minute})
	boom := errors.New("member down")
	failing := func(ctx context.Context) (*hierlock.Lock, error) { return nil, boom }

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := mgr.Acquire(context.Background(), "hot", hierlock.W, failing)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("queued client error = %v, want %v", err, boom)
		}
	}
}

// TestAdmissionHeadTimeoutDoesNotFailQueue is the regression test for
// the head-of-line error amplification bug: one leader acquisition
// failing (the head waiter's timeout expiring on a contended lock) used
// to fail every parked waiter behind it. Only the head client may see
// the error; a fresh leader must re-acquire for the rest.
func TestAdmissionHeadTimeoutDoesNotFailQueue(t *testing.T) {
	mgr, m, reg := newMemberManager(t, session.Config{DefaultTTL: time.Minute})

	// The first leader acquisition blocks until the gate opens, then
	// fails like a timed-out Member.Lock; later attempts acquire for
	// real. The gate keeps all three waiters parked behind the doomed
	// acquisition.
	var calls atomic.Int32
	gate := make(chan struct{})
	acq := func(ctx context.Context) (*hierlock.Lock, error) {
		if calls.Add(1) == 1 {
			<-gate
			return nil, context.DeadlineExceeded
		}
		return m.Lock(ctx, "hot", hierlock.W)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, _, err := mgr.Acquire(context.Background(), "hot", hierlock.W, acq)
			if err == nil {
				err = mgr.Release("hot", hierlock.W, l)
				errs <- nil
				if err != nil {
					t.Errorf("release: %v", err)
				}
				return
			}
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, metrics.MetricAdmissionEnqueued) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errs)

	granted, timedOut := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			granted++
		case errors.Is(err, context.DeadlineExceeded):
			timedOut++
		default:
			t.Fatalf("unexpected waiter error: %v", err)
		}
	}
	if timedOut != 1 || granted != 2 {
		t.Fatalf("outcomes = %d granted / %d timed out, want 2 granted / 1 timed out (head only)",
			granted, timedOut)
	}
}

// TestAdmissionCancelGrantRaceStress hammers the cancel-vs-grant race
// in Acquire's ctx.Done() branch: waiters cancel with tiny deadlines
// while grants and hand-offs race in. Afterwards no hold may be leaked
// (a fresh direct acquisition must succeed) and the admission ledger
// must balance: every enqueued waiter resolved to exactly one grant or
// one context error.
func TestAdmissionCancelGrantRaceStress(t *testing.T) {
	mgr, m, reg := newMemberManager(t, session.Config{DefaultTTL: time.Minute})
	acq := acquirer(m, "hot", hierlock.W)
	goroutines := runtime.NumGoroutine()

	const clients = 8
	var granted, canceled atomic.Int64
	stop := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; time.Now().Before(stop); n++ {
				// Vary the deadline so cancellations land at every phase:
				// parked, mid-leader-acquisition, and racing the grant.
				d := time.Duration((seed*7+n)%5) * time.Millisecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				l, _, err := mgr.Acquire(ctx, "hot", hierlock.W, acq)
				cancel()
				switch {
				case err == nil:
					granted.Add(1)
					if rerr := mgr.Release("hot", hierlock.W, l); rerr != nil {
						t.Errorf("release: %v", rerr)
						return
					}
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					canceled.Add(1)
				default:
					t.Errorf("acquire: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// Ledger: every admission resolved exactly once.
	enq := counter(reg, metrics.MetricAdmissionEnqueued)
	if got := granted.Load() + canceled.Load(); got != int64(enq) {
		t.Fatalf("ledger imbalance: enqueued %d, resolved %d (%d granted + %d canceled)",
			enq, got, granted.Load(), canceled.Load())
	}
	// No leaked hold: the lock must be directly acquirable. Abandoned
	// grants release asynchronously, so allow a grace period.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l, err := m.Lock(ctx, "hot", hierlock.W)
	if err != nil {
		t.Fatalf("lock after storm: %v (leaked hold?)", err)
	}
	_ = l.Unlock()
	if err := m.Err(); err != nil {
		t.Fatalf("member error after storm: %v", err)
	}
	// No admission left a helper behind.
	waitGoroutines(t, goroutines)
}

// TestSharedModeBypassesQueue: shared modes ride the member's
// shared-join fast path, not the admission queue.
func TestSharedModeBypassesQueue(t *testing.T) {
	mgr, m, reg := newMemberManager(t, session.Config{DefaultTTL: time.Minute})
	acq := acquirer(m, "doc", hierlock.R)
	var locks []*hierlock.Lock
	for i := 0; i < 3; i++ {
		l, f, err := mgr.Acquire(context.Background(), "doc", hierlock.R, acq)
		if err != nil {
			t.Fatal(err)
		}
		if f.IsZero() {
			t.Fatal("shared grant missing fence")
		}
		locks = append(locks, l)
	}
	if got := counter(reg, metrics.MetricAdmissionEnqueued); got != 0 {
		t.Fatalf("shared acquisitions enqueued = %d, want 0", got)
	}
	for _, l := range locks {
		if err := mgr.Release("doc", hierlock.R, l); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpgradeVoidsHandoff: upgrading a queue-admitted U to W changes
// the handle's mode, so its release cannot be handed to U waiters — it
// must go through a real release and a fresh leader acquisition.
func TestUpgradeVoidsHandoff(t *testing.T) {
	mgr, m, reg := newMemberManager(t, session.Config{DefaultTTL: time.Minute})
	acq := acquirer(m, "acct", hierlock.U)

	l, _, err := mgr.Acquire(context.Background(), "acct", hierlock.U, acq)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() {
		ql, _, err := mgr.Acquire(context.Background(), "acct", hierlock.U, acq)
		if err == nil {
			err = mgr.Release("acct", hierlock.U, ql)
		}
		granted <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, metrics.MetricAdmissionEnqueued) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Upgrade(context.Background()); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	if err := mgr.Release("acct", hierlock.U, l); err != nil {
		t.Fatal(err)
	}
	if err := <-granted; err != nil {
		t.Fatalf("waiter after upgrade release: %v", err)
	}
	// The W handle could not be handed off as a U grant: the waiter's
	// grant came from a second member-level acquisition.
	if got := counter(reg, metrics.MetricAdmissionLeaderAcquires); got != 2 {
		t.Fatalf("leader acquires = %d, want 2", got)
	}
}
