package hierlock

import (
	"context"
	"errors"
	"fmt"
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
	return ls.waiter != nil, ls.w.parked, ls.admitted, len(ls.w.ch)
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

// returnedLost reports whether the victim has returned ErrLockLost,
// leaving its outcome in done.
func returnedLost(done chan error) bool {
	select {
	case err := <-done:
		done <- err
		return errors.Is(err, ErrLockLost)
	default:
		return false
	}
}

// deadlineContext is what a context's deadline gives a client, on cue:
// Done closes when its expiry is called, and Err is then
// context.DeadlineExceeded. A context.WithTimeout armed before the victim
// starts can pass under load before the victim queues or parks.
type deadlineContext struct {
	context.Context
	done chan struct{}
}

// expiringContext returns a deadlineContext and its expiry.
func expiringContext() (context.Context, func()) {
	ctx := &deadlineContext{Context: context.Background(), done: make(chan struct{})}
	return ctx, func() { close(ctx.done) }
}

func (c *deadlineContext) Done() <-chan struct{} { return c.done }

func (c *deadlineContext) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestReusedWaiterStates enumerates the protocol wait: the waiter and
// its wake-up channel are the lock entry's own storage, re-armed per
// request, so a wait that ends by cancel, deadline, RecoveryTimeout or
// Close while its grant races in must leave nothing
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
		// lost marks the event that ends the victim's wait with
		// ErrLockLost on a bound armed when it parks, so it may have
		// returned before the test sees it parked.
		lost bool
		// arm returns the victim's context and the trigger, which returns
		// once the event has happened.
		arm func(t *testing.T, m *Member) (context.Context, func())
	}{
		{"cancel", false, false, func(*testing.T, *Member) (context.Context, func()) {
			return context.WithCancel(bg)
		}},
		{"deadline", false, false, func(*testing.T, *Member) (context.Context, func()) {
			return expiringContext()
		}},
		{"recovery timeout", false, true, func(_ *testing.T, m *Member) (context.Context, func()) {
			m.recoveryTimeout = 10 * time.Millisecond // before any client parks
			return bg, func() { time.Sleep(10 * time.Millisecond) }
		}},
		{"close", true, false, func(_ *testing.T, m *Member) (context.Context, func()) {
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
					if ev.lost {
						// await returns ErrLockLost only from the parked
						// state: a victim that has returned it has parked.
						waitEntry(t, m0, "client parked or lost", func(registered, parked, _ bool) bool {
							return registered && parked || returnedLost(done)
						})
					} else {
						waitParked(t, m0)
					}
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

// admission reads the admission word and queue length of m's waiterRes
// entry under its shard mutex.
func admission(m *Member) (admitted bool, queued int) {
	sh, ls := m.state(lockIDFor(waiterRes), waiterRes)
	defer sh.mu.Unlock()
	return ls.admitted, len(ls.admitQ)
}

// waitQueued polls until n clients are queued for waiterRes's slot.
func waitQueued(t *testing.T, m *Member, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		_, queued := admission(m)
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queued clients (have %d)", n, queued)
		}
	}
}

type lockResult struct {
	l   *Lock
	err error
}

// lockAsync issues a W Lock on waiterRes from a goroutine of its own.
func lockAsync(m *Member, ctx context.Context) chan lockResult {
	done := make(chan lockResult, 1)
	go func() {
		l, err := m.Lock(ctx, waiterRes, W)
		done <- lockResult{l, err}
	}()
	return done
}

// settle waits for a queued client's outcome: want (nil for a grant,
// which is released at once), or for a raced victim either.
func settle(t *testing.T, who string, done chan lockResult, want error, orGrant bool) {
	t.Helper()
	select {
	case r := <-done:
		switch {
		case r.err == nil && (want == nil || orGrant):
			if err := r.l.Unlock(); err != nil {
				t.Fatalf("%s unlock: %v", who, err)
			}
		case r.err == nil || !errors.Is(r.err, want):
			t.Fatalf("%s returned %v, want %v", who, r.err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned: the slot was not passed on", who)
	}
}

// TestSlotBlockedWaiterStates enumerates the local waiter layer, beside
// the protocol wait (TestReusedWaiterStates): a client queued for a
// lock's admission slot behind a local W holder. The victim gives up — cancel, deadline,
// Close — either while the holder still holds (it dequeues itself) or as
// the holder releases, the release a little later each round so that the
// pop sweeps across the event (a victim popped before it gives up owns
// the slot and must pass it on). A survivor queued behind the victim is
// granted either way, afterwards the queue is empty and the word clear,
// and the next Lock on the entry is granted.
func TestSlotBlockedWaiterStates(t *testing.T) {
	bg := context.Background()
	events := []struct {
		name   string
		want   error
		closes bool
		arm    func(t *testing.T, m *Member) (context.Context, func())
	}{
		{"cancel", context.Canceled, false, func(*testing.T, *Member) (context.Context, func()) {
			return context.WithCancel(bg)
		}},
		{"deadline", context.DeadlineExceeded, false, func(*testing.T, *Member) (context.Context, func()) {
			return expiringContext()
		}},
		{"close", ErrClosed, true, func(_ *testing.T, m *Member) (context.Context, func()) {
			return bg, func() { _ = m.Close() }
		}},
	}
	for _, ev := range events {
		for _, raced := range []bool{false, true} {
			name := ev.name + "/still queued"
			if raced {
				name = ev.name + "/popped in the race window"
			}
			t.Run(name, func(t *testing.T) {
				for round := 0; round < 25; round++ {
					c, err := NewCluster(1)
					if err != nil {
						t.Fatal(err)
					}
					m := c.Member(0)
					holder, err := m.Lock(bg, waiterRes, W)
					if err != nil {
						t.Fatal(err)
					}
					victimCtx, trigger := ev.arm(t, m)
					victim := lockAsync(m, victimCtx)
					waitQueued(t, m, 1)
					survivor := lockAsync(m, bg)
					waitQueued(t, m, 2)
					trigger()
					if raced {
						for until := time.Now().Add(time.Duration(round) * 2 * time.Microsecond); time.Now().Before(until); {
						}
					} else {
						settle(t, "victim", victim, ev.want, false)
						if !ev.closes {
							waitQueued(t, m, 1)
						}
					}
					if err := holder.Unlock(); err != nil {
						t.Fatalf("round %d: holder unlock: %v", round, err)
					}
					if raced {
						settle(t, "victim", victim, ev.want, true)
					}
					if ev.closes {
						settle(t, "survivor", survivor, ErrClosed, false)
					} else {
						settle(t, "survivor", survivor, nil, false)
					}
					if admitted, queued := admission(m); admitted || queued != 0 {
						t.Fatalf("round %d: everyone returned and released, yet admitted=%v queued=%d", round, admitted, queued)
					}
					if !ev.closes {
						settle(t, "next client", lockAsync(m, bg), nil, false)
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

// TestSlotBlockedFIFO: eight clients queued for one lock's slot are
// admitted in the order they arrived.
func TestSlotBlockedFIFO(t *testing.T) {
	const n = 8
	bg := context.Background()
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	holder, err := m.Lock(bg, waiterRes, W)
	if err != nil {
		t.Fatal(err)
	}
	var order []int // appended to by whoever holds the W lock
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			l, err := m.Lock(bg, waiterRes, W)
			if err == nil {
				order = append(order, i)
				err = l.Unlock()
			}
			done <- err
		}()
		waitQueued(t, m, i+1)
	}
	if err := holder.Unlock(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i, who := range order {
		if who != i {
			t.Fatalf("admitted in order %v, want arrival order", order)
		}
	}
	if admitted, queued := admission(m); admitted || queued != 0 || len(order) != n {
		t.Fatalf("admitted=%v queued=%d after %d of %d grants", admitted, queued, len(order), n)
	}
}

// TestSlotBlockedEntryNotEvicted: queued clients are visible under the
// shard mutex, so no sweep takes their entry — not EvictIdle called in a
// loop, not the sweep every release on a stripe past shardEvictThreshold
// runs — although between a release and the popped client's next step
// the entry has no hold, no waiter and an engine at its initial state.
// Every queued client is granted on the entry it queued on.
func TestSlotBlockedEntryNotEvicted(t *testing.T) {
	const n = 8
	bg := context.Background()
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	holder, err := m.Lock(bg, waiterRes, W)
	if err != nil {
		t.Fatal(err)
	}
	// Fill waiterRes's stripe past the threshold with held, so resident,
	// entries: from here on every maybeEvict on the stripe sweeps it.
	stripe := uint64(lockIDFor(waiterRes)) % lockShardCount
	for i, held := 0, 0; held < shardEvictThreshold; i++ {
		res := fmt.Sprintf("filler-%d", i)
		if uint64(lockIDFor(res))%lockShardCount != stripe {
			continue
		}
		l, err := m.Lock(bg, res, W)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Unlock()
		held++
	}
	sh, entry := m.state(lockIDFor(waiterRes), waiterRes)
	sh.mu.Unlock()

	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			l, err := m.Lock(bg, waiterRes, W)
			if err == nil {
				sh, live := m.state(lockIDFor(waiterRes), waiterRes)
				sh.mu.Unlock()
				if l.ls != entry || live != entry {
					err = fmt.Errorf("client %d holds an entry that is not the one it queued on, or not the table's", i)
				}
				if uerr := l.Unlock(); err == nil {
					err = uerr
				}
			}
			done <- err
		}()
		waitQueued(t, m, i+1)
	}
	stop := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
				m.EvictIdle()
			}
		}
	}()
	if err := holder.Unlock(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a queued client was never granted")
		}
	}
	close(stop)
	<-swept
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestParkedWaiterAgeIsTimeParked: a waiter's age is kept as the entry
// stamp of its request (one word, no time.Time) and converted where it is
// read. A client parked behind a remote W holder shows, in the watchdog's
// sample and in the inventory, an age no less than the time it has been
// parked and no more than the time since its Lock was issued.
func TestParkedWaiterAgeIsTimeParked(t *testing.T) {
	bg := context.Background()
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m0, m1 := c.Member(0), c.Member(1)
	holder, err := m1.Lock(bg, waiterRes, W)
	if err != nil {
		t.Fatal(err)
	}
	issued := time.Now()
	done := lockAsync(m0, bg)
	waitParked(t, m0)
	parked := time.Now()
	time.Sleep(20 * time.Millisecond)

	atLeast := time.Since(parked)
	hs := m0.HealthSample()
	var waitNS int64
	for _, li := range m0.Inventory().Locks {
		if li.Resource == waiterRes && li.Waiter != nil {
			waitNS = li.Waiter.WaitNS
		}
	}
	atMost := time.Since(issued)
	if hs.Waiters != 1 || hs.OldestWaiterAge < atLeast || hs.OldestWaiterAge > atMost {
		t.Fatalf("HealthSample: %d waiters, oldest %v; want 1, between %v and %v", hs.Waiters, hs.OldestWaiterAge, atLeast, atMost)
	}
	if d := time.Duration(waitNS); d < atLeast || d > atMost {
		t.Fatalf("Inventory: waiter has waited %v, want between %v and %v", d, atLeast, atMost)
	}
	if err := holder.Unlock(); err != nil {
		t.Fatal(err)
	}
	settle(t, "parked client", done, nil, false)
	if hs := m0.HealthSample(); hs.Waiters != 0 || hs.OldestWaiterAge != 0 {
		t.Fatalf("after the grant: %d waiters, oldest %v", hs.Waiters, hs.OldestWaiterAge)
	}
}
