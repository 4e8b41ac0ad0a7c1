package hierlock

import (
	"context"
	"testing"
	"time"
)

const waiterRes = "hot"

// waiterEntry reads the reused waiter's state for waiterRes under its
// shard mutex: whether a request is registered, whether its client is
// parked, whether the admission slot is taken, and how many wake-ups sit
// in the per-lock channel.
func waiterEntry(m *Member) (registered, parked, admitted bool, wakeups int) {
	sh, ls := m.state(lockIDFor(waiterRes), waiterRes)
	defer sh.mu.Unlock()
	return ls.waiter != nil, ls.w.parked, len(ls.slot) != 0, len(ls.w.ch)
}

// waitEntry polls until cond holds for m's waiterRes entry.
func waitEntry(t *testing.T, m *Member, what string, cond func(registered, parked, admitted bool) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		registered, parked, admitted, _ := waiterEntry(m)
		if cond(registered, parked, admitted) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: timed out (registered=%v parked=%v admitted=%v)", what, registered, parked, admitted)
		}
	}
}

func waitParked(t *testing.T, m *Member) {
	t.Helper()
	waitEntry(t, m, "client parked", func(registered, parked, _ bool) bool { return registered && parked })
}

// TestReusedWaiterStates is the member-level half of the admission
// waiter enumeration (internal/session TestAdmissionWaiterStates): the
// waiter and its wake-up channel are the lock entry's own storage,
// re-armed per request, so a wait that ends by cancel, deadline,
// RecoveryTimeout or Close while its grant races in must leave nothing
// behind for the next request. Each round parks a victim on the slow
// path (a Lock behind a remote W holder, or an Upgrade behind a remote
// reader), fires the event, and releases the remote hold a little later
// each round, sweeping the grant across the event's window. Afterwards
// the victim has resolved (no lost wake-up), the channel is empty and
// nobody is marked parked (no stale event), and the next request on the
// same entry parks behind a fresh remote hold until that hold is
// released — a stale wake-up would hand it a lock it does not have — and
// is then granted (no leaked hold).
func TestReusedWaiterStates(t *testing.T) {
	bg := context.Background()
	events := []struct {
		name string
		// closes marks the event that closes the victim's member: there
		// is no next request to check afterwards.
		closes bool
		// arm returns the victim's context and the trigger, which returns
		// once the event has happened.
		arm func(t *testing.T, m *Member) (context.Context, func())
	}{
		{"cancel", false, func(*testing.T, *Member) (context.Context, func()) {
			return context.WithCancel(bg)
		}},
		{"deadline", false, func(t *testing.T, _ *Member) (context.Context, func()) {
			ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
			t.Cleanup(cancel)
			return ctx, func() { <-ctx.Done() }
		}},
		{"recovery timeout", false, func(_ *testing.T, m *Member) (context.Context, func()) {
			m.recoveryTimeout = 10 * time.Millisecond // before any client parks
			return bg, func() { time.Sleep(10 * time.Millisecond) }
		}},
		{"close", true, func(_ *testing.T, m *Member) (context.Context, func()) {
			return bg, func() { _ = m.Close() }
		}},
	}
	states := []struct {
		name string
		// park blocks a victim operation on m0 behind a hold on m1. It
		// returns the remote hold, the channel the victim's outcome
		// arrives on, and settle, which cleans up after the victim given
		// that outcome.
		park func(t *testing.T, m0, m1 *Member, victim context.Context) (remote *Lock, done chan error, settle func(error))
	}{
		{"lock behind a remote holder", func(t *testing.T, m0, m1 *Member, victim context.Context) (*Lock, chan error, func(error)) {
			remote, err := m1.Lock(bg, waiterRes, W)
			if err != nil {
				t.Fatal(err)
			}
			var l *Lock
			done := make(chan error, 1)
			go func() {
				var err error
				l, err = m0.Lock(victim, waiterRes, W)
				done <- err
			}()
			return remote, done, func(err error) {
				if err == nil {
					if err := l.Unlock(); err != nil {
						t.Errorf("victim unlock: %v", err)
					}
				}
			}
		}},
		{"upgrade behind a remote reader", func(t *testing.T, m0, m1 *Member, victim context.Context) (*Lock, chan error, func(error)) {
			l, err := m0.Lock(bg, waiterRes, U)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := m1.Lock(bg, waiterRes, R)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- l.Upgrade(victim) }()
			return remote, done, func(err error) {
				if err == nil && l.Mode() != W {
					t.Errorf("upgrade succeeded but handle holds %v", l.Mode())
				}
				// Releases now, or once the disowned upgrade lands.
				if err := l.Unlock(); err != nil {
					t.Errorf("victim unlock: %v", err)
				}
			}
		}},
	}
	for _, st := range states {
		for _, ev := range events {
			t.Run(st.name+"/"+ev.name, func(t *testing.T) {
				for round := 0; round < 25; round++ {
					c, err := NewCluster(2)
					if err != nil {
						t.Fatal(err)
					}
					m0, m1 := c.Member(0), c.Member(1)
					victim, trigger := ev.arm(t, m0)
					remote, done, settle := st.park(t, m0, m1, victim)
					waitParked(t, m0)
					trigger()
					for until := time.Now().Add(time.Duration(round) * 2 * time.Microsecond); time.Now().Before(until); {
					}
					if err := remote.Unlock(); err != nil {
						t.Fatalf("round %d: remote unlock: %v", round, err)
					}
					select {
					case err := <-done:
						settle(err)
					case <-time.After(10 * time.Second):
						t.Fatalf("round %d: lost wake-up: victim never returned", round)
					}
					if ev.closes {
						// A closed member takes no further deliveries, so
						// there is no next request; the entry must still be
						// clean.
						if _, parked, _, wakeups := waiterEntry(m0); parked || wakeups != 0 {
							t.Fatalf("round %d: closed member left parked=%v wakeups=%d", round, parked, wakeups)
						}
						_ = c.Close()
						continue
					}
					// A disowned request resolves when its grant arrives.
					waitEntry(t, m0, "entry idle", func(registered, _, admitted bool) bool { return !registered && !admitted })
					if _, parked, _, wakeups := waiterEntry(m0); parked || wakeups != 0 {
						t.Fatalf("round %d: stale waiter state: parked=%v wakeups=%d", round, parked, wakeups)
					}

					m0.recoveryTimeout = 0 // nobody is waiting
					remote, err = m1.Lock(bg, waiterRes, W)
					if err != nil {
						t.Fatalf("round %d: remote lock afterwards: %v (leaked hold?)", round, err)
					}
					next := make(chan error, 1)
					go func() {
						l, err := m0.Lock(bg, waiterRes, W)
						if err == nil {
							err = l.Unlock()
						}
						next <- err
					}()
					waitParked(t, m0)
					select {
					case err := <-next:
						t.Fatalf("round %d: next request returned (%v) while the lock was held remotely", round, err)
					case <-time.After(time.Millisecond):
					}
					if err := remote.Unlock(); err != nil {
						t.Fatal(err)
					}
					select {
					case err := <-next:
						if err != nil {
							t.Fatalf("round %d: next request: %v", round, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("round %d: next request never granted (leaked hold?)", round)
					}
					if err := c.Err(); err != nil {
						t.Fatalf("round %d: protocol error: %v", round, err)
					}
					_ = c.Close()
				}
			})
		}
	}
}
