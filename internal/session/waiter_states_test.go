package session_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
	"hierlock/internal/session"
)

// waiterFixture is one manager over a one-member cluster plus a tally
// of how its admission clients ended.
type waiterFixture struct {
	t   *testing.T
	cl  *hierlock.Cluster
	m   *hierlock.Member
	mgr *session.Manager
	reg *metrics.Registry

	round           int
	clients         sync.WaitGroup
	granted, failed atomic.Int64
}

const waiterRes = "hot"

func newWaiterFixture(t *testing.T, round int) *waiterFixture {
	t.Helper()
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	return &waiterFixture{t: t, round: round, cl: cl, m: cl.Member(0), reg: reg,
		mgr: session.NewManager(session.Config{DefaultTTL: time.Minute, Registry: reg})}
}

func (f *waiterFixture) close() {
	f.mgr.Close()
	_ = f.cl.Close()
}

// acquire is one admission on the caller's goroutine.
func (f *waiterFixture) acquire(ctx context.Context) *hierlock.Lock {
	l, _, err := f.mgr.Acquire(ctx, waiterRes, hierlock.W, acquirer(f.m, waiterRes, hierlock.W))
	if err != nil {
		f.failed.Add(1)
		return nil
	}
	f.granted.Add(1)
	return l
}

func (f *waiterFixture) release(l *hierlock.Lock) {
	if err := f.mgr.Release(waiterRes, hierlock.W, l); err != nil {
		f.t.Errorf("release: %v", err)
	}
}

// client starts one admission client that releases what it is granted,
// and returns once the client has entered the queue (n clients so far).
func (f *waiterFixture) client(ctx context.Context, n uint64) {
	f.t.Helper()
	f.clients.Add(1)
	go func() {
		defer f.clients.Done()
		if l := f.acquire(ctx); l != nil {
			f.release(l)
		}
	}()
	waitEnqueued(f.t, f.reg, n)
}

// skew spins for 2µs per round.
func (f *waiterFixture) skew() {
	for until := time.Now().Add(time.Duration(f.round) * 2 * time.Microsecond); time.Now().Before(until); {
	}
}

// outside takes the lock past the session tier, so whoever leads the
// queue blocks inside Member.Lock until it is unlocked.
func (f *waiterFixture) outside() *hierlock.Lock {
	f.t.Helper()
	l, err := f.m.Lock(context.Background(), waiterRes, hierlock.W)
	if err != nil {
		f.t.Fatal(err)
	}
	return l
}

// TestAdmissionWaiterStates enumerates cancel / deadline / Manager.Close
// against every state an admission client can be in (ROADMAP 5c):
// leading with followers parked behind it, leading alone, parked behind
// a checked-out hold, parked with the hand-off racing the event, and
// parked with the baton racing it. Whatever the interleaving, afterwards
// every client has resolved (no lost wake-up), the ledger balances
// (enqueued = granted + failed), no hold is leaked (a direct Member.Lock
// succeeds) and the goroutine count is back where it started.
func TestAdmissionWaiterStates(t *testing.T) {
	bg := context.Background()
	// An event arms the victim's context and returns its trigger, which
	// returns as soon as the event has happened: its consequences race
	// with whatever the state does next.
	events := []struct {
		name string
		arm  func(f *waiterFixture) (context.Context, func())
	}{
		{"cancel", func(*waiterFixture) (context.Context, func()) {
			return context.WithCancel(bg)
		}},
		{"deadline", func(f *waiterFixture) (context.Context, func()) {
			ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
			f.t.Cleanup(cancel)
			return ctx, func() { <-ctx.Done() }
		}},
		{"close", func(f *waiterFixture) (context.Context, func()) {
			return bg, f.mgr.Close
		}},
	}
	// A state puts the victim where its name says, triggers the event,
	// then lets every surviving client run to completion.
	states := []struct {
		name string
		// rounds > 1 for the states whose outcome depends on who wins:
		// each round gives the victim a little longer to act on the
		// event before the racing release, sweeping across the window.
		rounds int
		run    func(f *waiterFixture, victim context.Context, trigger func())
	}{
		{"leading head with followers", 1, func(f *waiterFixture, victim context.Context, trigger func()) {
			held := f.outside()
			f.client(victim, 1)
			f.client(bg, 2)
			f.client(bg, 3)
			trigger()
			_ = held.Unlock()
		}},
		{"leading head alone", 1, func(f *waiterFixture, victim context.Context, trigger func()) {
			held := f.outside()
			f.client(victim, 1)
			trigger()
			_ = held.Unlock()
		}},
		{"parked follower", 1, func(f *waiterFixture, victim context.Context, trigger func()) {
			l := f.acquire(bg)
			f.client(victim, 2)
			trigger()
			// Let the victim act on the event before the release.
			time.Sleep(5 * time.Millisecond)
			f.release(l)
		}},
		{"hand-off racing the event", 25, func(f *waiterFixture, victim context.Context, trigger func()) {
			l := f.acquire(bg)
			f.client(victim, 2)
			trigger()
			f.skew()
			f.release(l)
		}},
		{"baton racing the event", 25, func(f *waiterFixture, victim context.Context, trigger func()) {
			held := f.outside()
			head, fail := context.WithCancel(bg)
			defer fail()
			f.client(head, 1)
			f.client(victim, 2)
			f.client(bg, 3)
			trigger()
			f.skew()
			fail() // the head's failed lead passes the baton to the victim
			_ = held.Unlock()
		}},
	}
	for _, st := range states {
		for _, ev := range events {
			t.Run(st.name+"/"+ev.name, func(t *testing.T) {
				for round := 0; round < st.rounds; round++ {
					goroutines := runtime.NumGoroutine()
					f := newWaiterFixture(t, round)
					victim, trigger := ev.arm(f)
					st.run(f, victim, trigger)

					resolved := make(chan struct{})
					go func() { f.clients.Wait(); close(resolved) }()
					select {
					case <-resolved:
					case <-time.After(10 * time.Second):
						t.Fatalf("round %d: lost wake-up: %d granted + %d failed of %d enqueued",
							round, f.granted.Load(), f.failed.Load(), counter(f.reg, metrics.MetricAdmissionEnqueued))
					}
					enq := counter(f.reg, metrics.MetricAdmissionEnqueued)
					if got := f.granted.Load() + f.failed.Load(); got != int64(enq) {
						t.Fatalf("round %d: ledger imbalance: enqueued %d, resolved %d (%d granted + %d failed)",
							round, enq, got, f.granted.Load(), f.failed.Load())
					}
					// Abandoned member-level requests release
					// asynchronously, so allow a grace period.
					ctx, cancel := context.WithTimeout(bg, 5*time.Second)
					l, err := f.m.Lock(ctx, waiterRes, hierlock.W)
					cancel()
					if err != nil {
						t.Fatalf("round %d: lock afterwards: %v (leaked hold?)", round, err)
					}
					_ = l.Unlock()
					f.close()
					waitGoroutines(t, goroutines)
				}
			})
		}
	}
}
