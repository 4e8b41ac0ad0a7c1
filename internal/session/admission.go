package session

import (
	"context"

	"hierlock"
)

// Acquirer performs one member-level acquisition for a client
// (lockserver binds one per connection to Member.Lock). It runs on that
// client's goroutine, under that client's context.
type Acquirer func(ctx context.Context) (*hierlock.Lock, error)

// qkey names the exclusive-mode clients that want the same mode on the
// same resource: the population MaxWaiters caps.
type qkey struct {
	res  string
	mode hierlock.Mode
}

// Acquire obtains (resource, mode) for one client by running acquire
// inline, under the client's ctx. An exclusive-mode (U, W) client is
// counted in its (resource, mode) pair from entry until acquire returns;
// that count is what MaxWaiters caps and the waiting gauge reports. It
// orders nothing and wakes nobody: the clients wait in the member's own
// admission FIFO, and every release goes through the member's engine,
// which serves a queued remote request in its turn. Shared modes (IR, R,
// IW) are not counted: the member's shared-join fast path grants them
// locally in O(1).
func (m *Manager) Acquire(ctx context.Context, res string, mode hierlock.Mode, acquire Acquirer) (*hierlock.Lock, hierlock.FenceToken, error) {
	if mode != hierlock.U && mode != hierlock.W {
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
	if m.cfg.MaxWaiters > 0 && m.waiting[k] >= m.cfg.MaxWaiters {
		m.mu.Unlock()
		m.busy.Inc()
		return nil, hierlock.FenceToken{}, ErrBusy
	}
	m.waiting[k]++
	m.mu.Unlock()
	m.enqueued.Inc()

	l, err := acquire(ctx)
	m.mu.Lock()
	if m.waiting[k]--; m.waiting[k] == 0 {
		delete(m.waiting, k)
	}
	m.mu.Unlock()
	if err != nil {
		return nil, hierlock.FenceToken{}, err
	}
	m.leaderAcq.Inc()
	return l, l.Fence(), nil
}

// Release releases a hold Acquire granted, through the member's engine.
// The resource and mode it was acquired with are not needed.
func (m *Manager) Release(_ string, _ hierlock.Mode, l *hierlock.Lock) error {
	return l.Unlock()
}
