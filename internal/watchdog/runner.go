package watchdog

import (
	"sync"
	"time"

	"hierlock/internal/metrics"
)

// Runner drives a Watchdog on a ticker for the live runtime: it pulls
// a Sample from the node each interval, evaluates it, and invokes the
// transition hook when the verdict changes (lockd uses the hook to
// write an incident on entry to Stalled).
// Current is safe to call from HTTP handlers; all methods are nil-safe.
type Runner struct {
	wd       *Watchdog
	sample   func() Sample
	interval time.Duration

	mu          sync.Mutex
	cur         Health
	transitions map[State]uint64
	onChange    func(from, to State, h Health)
	stop        chan struct{}
	done        chan struct{}
	started     bool
}

// NewRunner creates a runner evaluating cfg against sample() every
// interval (default 1s when <= 0). Call Start to begin.
func NewRunner(cfg Config, interval time.Duration, sample func() Sample) *Runner {
	if interval <= 0 {
		interval = time.Second
	}
	r := &Runner{
		wd:          New(cfg),
		sample:      sample,
		interval:    interval,
		cur:         Health{State: Healthy, Status: Healthy.String()},
		transitions: make(map[State]uint64, len(States)),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, s := range States {
		r.transitions[s] = 0
	}
	return r
}

// OnTransition sets the state-change hook. The hook runs on the
// runner's goroutine, so a slow hook (a CPU profile capture) delays
// the next evaluation, never the member. Set before Start.
func (r *Runner) OnTransition(f func(from, to State, h Health)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onChange = f
	r.mu.Unlock()
}

// Start launches the evaluation loop. Nil-safe; second call is a no-op.
func (r *Runner) Start() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Tick()
			case <-r.stop:
				return
			}
		}
	}()
}

// Stop halts the loop. Nil-safe; safe to call without Start.
func (r *Runner) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	started := r.started
	r.started = false
	r.mu.Unlock()
	close(r.stop)
	if started {
		<-r.done
	}
}

// Tick runs one evaluation immediately and returns the verdict (tests
// and the loop share this path). Nil-safe.
func (r *Runner) Tick() Health {
	if r == nil {
		return Health{State: Healthy, Status: Healthy.String()}
	}
	h := r.wd.Evaluate(r.sample())
	r.mu.Lock()
	prev := r.cur
	r.cur = h
	var hook func(from, to State, h Health)
	if h.State != prev.State {
		r.transitions[h.State]++
		hook = r.onChange
	}
	r.mu.Unlock()
	if hook != nil {
		hook(prev.State, h.State, h)
	}
	return h
}

// Current returns the latest verdict. Nil-safe (healthy).
func (r *Runner) Current() Health {
	if r == nil {
		return Health{State: Healthy, Status: Healthy.String()}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// Transitions snapshots the per-state entry counts (every state
// present, zeros included). Nil-safe.
func (r *Runner) Transitions() map[State]uint64 {
	out := make(map[State]uint64, len(States))
	for _, s := range States {
		out[s] = 0
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	for s, n := range r.transitions {
		out[s] = n
	}
	r.mu.Unlock()
	return out
}

// RegisterCollectors exposes the runner's verdict and transition
// counts at scrape time.
func RegisterCollectors(reg *metrics.Registry, r *Runner) {
	reg.Collect(metrics.MetricHealthState,
		"Watchdog verdict: 0 healthy, 1 degraded, 2 stalled.", "gauge",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(r.Current().State))
		})
	reg.Collect(metrics.MetricHealthTransitions,
		"Watchdog verdict transitions, by state entered.", "counter",
		func(emit func(metrics.Labels, float64)) {
			for s, n := range r.Transitions() {
				emit(metrics.Labels{"state": s.String()}, float64(n))
			}
		})
}
