package hierlock_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/introspect"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
)

// incidentOn wires the runner's transition hook to write a stall
// incident, of the ring rec and the profiles, whenever health worsens
// past floor — lockd's stalled→incident wiring, rate-limited to one an
// hour, so any repeat inside a test is suppressed. Reading the result
// closes the recorder, which waits for the incident and cuts its CPU
// profile short: it returns the incidents written and the triggers
// suppressed.
func incidentOn(t *testing.T, wd *watchdog.Runner, floor watchdog.State, rec *trace.Recorder) (result func() (written, suppressed int)) {
	t.Helper()
	r := introspect.NewRecorder(0, 0)
	if err := r.EnableAutoDump(t.TempDir(), time.Hour); err != nil {
		t.Fatal(err)
	}
	r.Follow(introspect.Source{Trace: rec})
	t.Cleanup(r.Close)
	var mu sync.Mutex
	suppressed := 0
	wd.OnTransition(func(from, to watchdog.State, h watchdog.Health) {
		if to >= floor && to > from {
			path, err := r.TriggerDump(introspect.ReasonStall)
			if err != nil {
				t.Errorf("incident on transition to %s: %v", to, err)
			}
			if path == "" {
				mu.Lock()
				suppressed++
				mu.Unlock()
			}
		}
	})
	return func() (int, int) {
		r.Close()
		st := r.Stats()
		if st.LastErr != nil {
			t.Fatalf("incident error: %v", st.LastErr)
		}
		mu.Lock()
		defer mu.Unlock()
		return int(st.Written[introspect.ReasonStall]), suppressed
	}
}

func hasReason(h watchdog.Health, code string) bool {
	for _, r := range h.Reasons {
		if r.Code == code {
			return true
		}
	}
	return false
}

// TestTCPWatchdogWedgedRecovery wedges a regeneration round on purpose:
// the token holder and two more of five members crash, leaving two
// survivors against a majority quorum of three, so the regenerator's
// round stays in flight for good. A watchdog over the regenerator's
// HealthSample, its thresholds scaled to hundreds of milliseconds, must
// walk healthy → degraded → stalled exactly once, name the wedged round,
// and write exactly one incident, on the way to stalled. Not parallel:
// an incident takes the process's one CPU profiler, as in
// TestTCPWatchdogFsyncStalls.
func TestTCPWatchdogWedgedRecovery(t *testing.T) {
	const res = "wedged"
	au := newSharedAudit(t)
	members := newRecoveryTCPCluster(t, 5, au.tune)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := members[2].Lock(ctx, res, hierlock.W); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3, 4} {
		if err := members[i].Close(); err != nil {
			t.Fatal(err)
		}
		au.crashed(i)
	}
	wd := watchdog.NewRunner(watchdog.Config{
		PendingGrace: 100 * time.Millisecond,
		StalledAfter: 10 * time.Second,
		RoundGrace:   200 * time.Millisecond,
	}, time.Second, members[0].HealthSample)
	incidents := incidentOn(t, wd, watchdog.Stalled, au.recs[0])

	// The survivors' requests wait on a round that cannot commit.
	wctx, wcancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, m := range members[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l, err := m.Lock(wctx, res, hierlock.W); err == nil {
				t.Errorf("member %d granted without a quorum: the wedge did not hold", m.ID())
				_ = l.Unlock()
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for stalled := 0; stalled < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("never stalled: %+v", wd.Current())
		}
		time.Sleep(25 * time.Millisecond)
		if wd.Tick().State == watchdog.Stalled {
			stalled++
		}
	}

	h := wd.Current()
	if !hasReason(h, watchdog.ReasonRecoveryWedged) {
		t.Errorf("stalled without %s: %+v", watchdog.ReasonRecoveryWedged, h.Reasons)
	}
	tr := wd.Transitions()
	if tr[watchdog.Stalled] != 1 {
		t.Errorf("entered stalled %d times, want exactly 1", tr[watchdog.Stalled])
	}
	if tr[watchdog.Degraded] == 0 {
		t.Error("never degraded before stalling: escalation skipped a stage")
	}
	// The sample itself pins the wedge: a round in flight, the
	// regenerator's own request starved behind it.
	if s := members[0].HealthSample(); s.RoundsInFlight == 0 || s.Waiters != 1 {
		t.Errorf("sample %+v, want a round in flight and 1 waiter", s)
	}
	wcancel()
	wg.Wait()
	if written, suppressed := incidents(); written != 1 {
		t.Errorf("stall wrote %d incidents, want exactly 1 (suppressed %d)", written, suppressed)
	}
	au.check()
}

// TestTCPWatchdogFsyncStalls overlays an injected fsync-stall count on a
// live member's HealthSample while a resident workload keeps its grants
// flowing: two stall bursts, each long enough to trip the streak rule.
// Health must turn degraded for each burst and recover between them; an
// incident is written on the first turn and rate-limited away on the
// second, so the two bursts cost exactly one. Not parallel: the
// incident takes the process's one CPU profiler.
func TestTCPWatchdogFsyncStalls(t *testing.T) {
	au := newSharedAudit(t)
	members := newRecoveryTCPCluster(t, 3, au.tune)
	var stalls uint64
	sample := func() watchdog.Sample {
		s := members[0].HealthSample()
		s.FsyncStalls = stalls
		return s
	}
	wd := watchdog.NewRunner(watchdog.Config{FsyncStreak: 3}, time.Second, sample)
	incidents := incidentOn(t, wd, watchdog.Degraded, au.recs[0])

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			l, err := members[0].Lock(ctx, "fsync-res", hierlock.W)
			if err != nil {
				return
			}
			_ = l.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 1; i <= 35; i++ {
		if (i >= 10 && i <= 15) || (i >= 25 && i <= 30) {
			stalls++
		}
		time.Sleep(10 * time.Millisecond)
		wd.Tick()
	}
	cancel()
	<-done

	tr := wd.Transitions()
	if tr[watchdog.Degraded] != 2 || tr[watchdog.Healthy] != 2 || tr[watchdog.Stalled] != 0 {
		t.Errorf("transitions %v, want 2 into degraded, 2 back to healthy, none into stalled", tr)
	}
	if h := wd.Current(); h.State != watchdog.Healthy {
		t.Errorf("final health %s, want healthy: %+v", h.Status, h.Reasons)
	}
	if written, suppressed := incidents(); written != 1 || suppressed != 1 {
		t.Errorf("bursts wrote %d incidents and suppressed %d, want 1 and 1", written, suppressed)
	}
	au.check()
}

// TestTCPWatchdogHealthyNoFalsePositives runs a contended workload —
// three members fighting over one W lock over TCP, with the failure
// detector on — under a watchdog ticking on each member's HealthSample.
// The cluster absorbs it well inside the thresholds, scaled to hundreds
// of milliseconds, so any transition away from healthy is a false
// positive.
func TestTCPWatchdogHealthyNoFalsePositives(t *testing.T) {
	t.Parallel()
	au := newSharedAudit(t)
	members := newRecoveryTCPCluster(t, 3, au.tune)
	cfg := watchdog.Config{
		PendingGrace: 500 * time.Millisecond,
		StalledAfter: 2 * time.Second,
		RoundGrace:   500 * time.Millisecond,
	}
	var runners []*watchdog.Runner
	for _, m := range members {
		wd := watchdog.NewRunner(cfg, time.Second, m.HealthSample)
		wd.OnTransition(func(from, to watchdog.State, h watchdog.Health) {
			t.Errorf("member %d false positive: %s -> %s: %+v", m.ID(), from, to, h.Reasons)
		})
		runners = append(runners, wd)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				l, err := m.Lock(ctx, "healthy-res", hierlock.W)
				if err != nil {
					t.Errorf("member %d: %v", m.ID(), err)
					return
				}
				time.Sleep(5 * time.Millisecond)
				_ = l.Unlock()
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	for ticking := true; ticking; {
		select {
		case <-stop:
			ticking = false
		case <-time.After(25 * time.Millisecond):
		}
		for _, wd := range runners {
			wd.Tick()
		}
	}
	for i, m := range members {
		if err := m.Err(); err != nil {
			t.Errorf("member %d protocol error: %v", i, err)
		}
		if r := m.RecoveryRounds(); r != 0 {
			t.Errorf("member %d ran %d recovery rounds on a healthy cluster", i, r)
		}
	}
	au.check()
}
