package session

import (
	"context"

	"hierlock"
)

// Acquirer performs one member-level acquisition on behalf of the
// client leading an admission queue (lockserver binds it to
// Member.Lock). It runs on that client's goroutine, under that client's
// context.
type Acquirer func(ctx context.Context) (*hierlock.Lock, error)

// qkey identifies one admission queue: all waiters in it want the same
// mode on the same resource, so a granted hold satisfies any of them.
type qkey struct {
	res  string
	mode hierlock.Mode
}

// queue collapses many local clients waiting for the same exclusive
// (resource, mode) into one member-level waiter. State is guarded by
// Manager.mu. A queue stays in the table exactly while it is leading or
// held, and clients park only on such a queue, so somebody always owes
// every parked client a hand-off or the baton.
type queue struct {
	// waiters are the parked clients, FIFO. The leading client is not
	// among them; depth counts it.
	waiters []chan qresult
	// leading marks a client running its Acquirer for this queue.
	leading bool
	// held marks the member-level hold as checked out to some client;
	// its release routes back through Manager.Release for hand-off.
	held bool
}

// qresult wakes a parked client: with the handed-off hold and its fresh
// fence, or empty — the baton, "your turn to lead".
type qresult struct {
	l     *hierlock.Lock
	fence hierlock.FenceToken
}

// depth is the population MaxWaiters caps and the waiting gauge
// reports: every client that has entered the queue and holds nothing
// yet.
func (q *queue) depth() int {
	if q.leading {
		return len(q.waiters) + 1
	}
	return len(q.waiters)
}

// exclusiveMode reports whether acquisitions of this mode go through
// wait-queue admission. Shared, self-compatible modes (IR, R, IW)
// bypass it: the member's shared-join fast path already grants them
// locally in O(1).
func exclusiveMode(mode hierlock.Mode) bool {
	return mode == hierlock.U || mode == hierlock.W
}

// Acquire obtains (resource, mode) for one client. Shared modes call
// the acquirer directly. Exclusive modes go through the admission
// queue: a client that finds it idle leads — it runs the acquirer
// inline, under its own ctx, and checks the hold out. A client that
// finds it leading or held parks (zero protocol traffic) until a
// release hands it the hold, re-stamped with a fresh fencing token, or
// passes it the baton to lead in its turn.
func (m *Manager) Acquire(ctx context.Context, res string, mode hierlock.Mode, acquire Acquirer) (*hierlock.Lock, hierlock.FenceToken, error) {
	if !exclusiveMode(mode) {
		l, err := acquire(ctx)
		if err != nil {
			return nil, hierlock.FenceToken{}, err
		}
		return l, l.Fence(), nil
	}
	k := qkey{res: res, mode: mode}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, hierlock.FenceToken{}, ErrClosed
	}
	q := m.queues[k]
	if q == nil {
		q = &queue{}
		m.queues[k] = q
	}
	if m.cfg.MaxWaiters > 0 && q.depth() >= m.cfg.MaxWaiters {
		m.mu.Unlock()
		m.busy.Inc()
		return nil, hierlock.FenceToken{}, ErrBusy
	}
	m.enqueued.Inc()
	if !q.held && !q.leading {
		q.leading = true
		m.mu.Unlock()
	} else {
		w := make(chan qresult, 1) // buffered: senders hold m.mu
		q.waiters = append(q.waiters, w)
		m.mu.Unlock()
		var r qresult
		select {
		case r = <-w:
		case <-ctx.Done():
			m.mu.Lock()
			gaveUp := q.remove(w)
			m.mu.Unlock()
			if gaveUp {
				return nil, hierlock.FenceToken{}, ctx.Err()
			}
			// Already popped: the hand-off or baton was sent under m.mu
			// and wins the race, so nothing is left without a taker.
			r = <-w
		}
		if r.l != nil {
			return r.l, r.fence, nil
		}
	}

	l, err := acquire(ctx)
	m.mu.Lock()
	q.leading = false
	if err != nil {
		// Only this client fails — the acquisition ran under its
		// deadline. The others have their own: the next one leads.
		m.passBatonLocked(k, q)
		m.mu.Unlock()
		return nil, hierlock.FenceToken{}, err
	}
	q.held = true
	m.mu.Unlock()
	m.leaderAcq.Inc()
	return l, l.Fence(), nil
}

// Release disposes of a queue-admitted hold: hand it to the next
// waiter when one exists and the handle still matches the queue (same
// mode, hold intact), otherwise pass the baton to the next waiter, if
// any, and release it for real. Callers pass the mode the lock was
// *acquired* with (an upgrade changes the handle's mode and voids
// hand-off).
func (m *Manager) Release(res string, mode hierlock.Mode, l *hierlock.Lock) error {
	if !exclusiveMode(mode) {
		return l.Unlock()
	}
	k := qkey{res: res, mode: mode}
	m.mu.Lock()
	q := m.queues[k]
	if q == nil || !q.held {
		// Not checked out through this queue (e.g. manager restarted);
		// plain release.
		m.mu.Unlock()
		return l.Unlock()
	}
	if len(q.waiters) > 0 && l.Mode() == mode {
		if f, err := l.Refence(); err == nil {
			w := q.waiters[0]
			q.waiters = q.waiters[1:]
			m.handoffs.Inc()
			w <- qresult{l: l, fence: f}
			m.mu.Unlock()
			return nil
		}
		// Hold lost or upgrade in flight: fall through to a real
		// release and a fresh acquisition by the next waiter.
	}
	q.held = false
	m.passBatonLocked(k, q)
	m.mu.Unlock()
	return l.Unlock()
}

// passBatonLocked disposes of a queue nobody leads or holds any more:
// the head waiter becomes the leader, or with nobody parked the queue
// leaves the table. Caller holds m.mu.
func (m *Manager) passBatonLocked(k qkey, q *queue) {
	if len(q.waiters) == 0 {
		delete(m.queues, k)
		return
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	q.leading = true
	w <- qresult{}
}

// remove takes a parked client that gave up out of the queue. It
// reports false when w was already popped for a hand-off or the baton.
func (q *queue) remove(w chan qresult) bool {
	for i, other := range q.waiters {
		if other == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return true
		}
	}
	return false
}
