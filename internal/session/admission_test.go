package session_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
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

// waitEnqueued blocks until n exclusive-mode clients have been admitted.
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

func acquirer(m *hierlock.Member, res string, mode hierlock.Mode) session.Acquirer {
	return func(ctx context.Context) (*hierlock.Lock, error) {
		return m.Lock(ctx, res, mode)
	}
}

// TestAdmissionBusyCap: beyond MaxWaiters waiting clients, acquisitions
// are refused with ErrBusy instead of piling up without bound. The cap
// and the waiting gauge count every client that is inside Acquire and
// holds nothing yet — the ones queued at the member's admission slot and
// one still in its acquisition — so the N+1-th bounces whether the hold
// is checked out or the head is mid-acquisition, holding the member's
// slot but not yet returned.
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
			// Mid-lead, the first member-level grant waits at the gate
			// before it returns to its client.
			var calls atomic.Int32
			gate := make(chan struct{})
			acq := func(ctx context.Context) (*hierlock.Lock, error) {
				l, err := m.Lock(ctx, "hot", hierlock.W)
				if tc.midLead && calls.Add(1) == 1 {
					<-gate
				}
				return l, err
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
			// maxWaiters more reach the cap.
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
			// One member-level acquisition per client granted.
			if got := counter(reg, metrics.MetricAdmissionLeaderAcquires); got != entered {
				t.Fatalf("leader acquires = %d, want %d", got, entered)
			}
		})
	}
}

// TestSharedModeBypassesQueue: shared modes ride the member's
// shared-join fast path and are not counted by admission: three R
// holders of one resource pass a cap of two, each granted with a fence.
func TestSharedModeBypassesQueue(t *testing.T) {
	mgr, m, reg := newMemberManager(t, session.Config{
		DefaultTTL: time.Minute,
		MaxWaiters: 2,
	})
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
	if got := gauge(t, reg, metrics.MetricAdmissionWaiting); got != 0 {
		t.Fatalf("waiting gauge = %v with shared holders, want 0", got)
	}
	for _, l := range locks {
		if err := mgr.Release("doc", hierlock.R, l); err != nil {
			t.Fatal(err)
		}
	}
}
