// Package watchdog turns the member's raw health signals into a
// three-state verdict — healthy, degraded, stalled — with structured
// reasons. The evaluator is pure: it consumes periodic Samples (whose
// clock the caller supplies) and keeps only the cross-evaluation state
// it needs (progress deltas, streak counters), so tests can drive it
// tick by tick and replay exact incident shapes. The Runner wraps it in a ticker loop for lockd, feeding
// /healthz, /debug/health and the stall-triggered incidents.
package watchdog

import (
	"fmt"
	"time"
)

// State is the watchdog's verdict, ordered by severity.
type State int

// Verdict states. Degraded means the node is making progress but an
// indicator is off nominal (slow recovery round, fsync stall streak,
// growing queues); Stalled means client-visible progress has stopped
// (a wedged waiter or recovery round).
const (
	Healthy State = iota
	Degraded
	Stalled
)

// String names the state for /healthz and metric labels.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Stalled:
		return "stalled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// States lists the verdict states, for zero-pre-registration of the
// transition counter's label values.
var States = []State{Healthy, Degraded, Stalled}

// Reason codes (Reason.Code values).
const (
	// ReasonWaiterWedged: the oldest pending waiter exceeded StalledAfter.
	ReasonWaiterWedged = "waiter_wedged"
	// ReasonPendingNoGrants: waiters are pending beyond PendingGrace and
	// no grant completed since the previous evaluation.
	ReasonPendingNoGrants = "pending_no_grants"
	// ReasonRecoverySlow / ReasonRecoveryWedged: a token-regeneration
	// round has been in flight longer than RoundGrace / 2x RoundGrace.
	ReasonRecoverySlow   = "recovery_slow"
	ReasonRecoveryWedged = "recovery_wedged"
	// ReasonFsyncStalls: FsyncStreak consecutive evaluations each
	// observed new journal fsync stalls.
	ReasonFsyncStalls = "fsync_stalls"
	// ReasonQueueGrowth: transport queues grew for QueueGrowthEvals
	// consecutive evaluations.
	ReasonQueueGrowth = "queue_growth"
	// ReasonQueueNearLimit: a bounded transport queue is at 90% or more
	// of its limit (sends are about to shed).
	ReasonQueueNearLimit = "queue_near_limit"
)

// Sample is one periodic observation of a node's health signals. All
// fields are plain scalars the member snapshots;
// cumulative counters are compared across evaluations by the watchdog
// itself.
type Sample struct {
	// Now is the observation clock, wall time on a live node. Only
	// differences between samples matter.
	Now time.Time
	// Waiters counts pending client requests; OldestWaiterAge is the age
	// of the oldest.
	Waiters         int
	OldestWaiterAge time.Duration
	// Grants is the cumulative completed-acquisition count.
	Grants uint64
	// RoundsInFlight counts recovery rounds started but not committed on
	// this node as regenerator; OldestRoundAge is the age of the oldest.
	RoundsInFlight int
	OldestRoundAge time.Duration
	// FsyncStalls is the cumulative count of journal fsyncs over the
	// stall threshold.
	FsyncStalls uint64
	// QueueLen is the node's total transport queue occupancy (outbound
	// per-peer queues plus the inbound mailbox); QueueLimit is the
	// configured per-queue bound (0 = unbounded).
	QueueLen   uint64
	QueueLimit uint64
	// TrackedLocks is the member's lock-table size, reported in the
	// health view for context (not currently judged).
	TrackedLocks int
}

// Reason is one finding behind a non-healthy verdict.
type Reason struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Detail   string `json:"detail"`
}

// Health is the watchdog's verdict after one evaluation.
type Health struct {
	State   State    `json:"-"`
	Status  string   `json:"state"`
	Reasons []Reason `json:"reasons,omitempty"`
}

// Config tunes the evaluator. Zero values take the defaults noted on
// each field.
type Config struct {
	// PendingGrace is how long a waiter may pend with no grant progress
	// before the node is degraded (default 5s).
	PendingGrace time.Duration
	// StalledAfter is the waiter age at which the node is stalled
	// outright — a grant path is wedged (default 30s). It should exceed
	// the member's RecoveryTimeout if one is configured, so lost waits
	// resolve before the watchdog escalates.
	StalledAfter time.Duration
	// RoundGrace is how long a recovery round may stay in flight before
	// the node is degraded; 2x RoundGrace marks it stalled (default 10s).
	RoundGrace time.Duration
	// FsyncStreak is the number of consecutive evaluations that must
	// each observe new fsync stalls before the node is degraded
	// (default 3).
	FsyncStreak int
	// QueueGrowthEvals is the number of consecutive evaluations with
	// strictly growing transport queues before the node is degraded
	// (default 5).
	QueueGrowthEvals int
}

func (c Config) withDefaults() Config {
	if c.PendingGrace <= 0 {
		c.PendingGrace = 5 * time.Second
	}
	if c.StalledAfter <= 0 {
		c.StalledAfter = 30 * time.Second
	}
	if c.RoundGrace <= 0 {
		c.RoundGrace = 10 * time.Second
	}
	if c.FsyncStreak <= 0 {
		c.FsyncStreak = 3
	}
	if c.QueueGrowthEvals <= 0 {
		c.QueueGrowthEvals = 5
	}
	return c
}

// Watchdog is the stateful evaluator. Not goroutine-safe; the Runner
// (or a test loop) serializes Evaluate calls.
type Watchdog struct {
	cfg         Config
	prev        Sample
	hasPrev     bool
	fsyncStreak int
	queueGrowth int
}

// New creates an evaluator with cfg's thresholds (defaults applied).
func New(cfg Config) *Watchdog {
	return &Watchdog{cfg: cfg.withDefaults()}
}

// Evaluate judges one sample against the previous one and returns the
// verdict. Pure with respect to wall time: only Sample fields and the
// evaluator's own streak state are consulted.
func (w *Watchdog) Evaluate(s Sample) Health {
	var reasons []Reason
	worst := Healthy
	add := func(sev State, code, detail string) {
		reasons = append(reasons, Reason{Code: code, Severity: sev.String(), Detail: detail})
		if sev > worst {
			worst = sev
		}
	}

	// Wedged or starved waiters: client-visible progress.
	if s.Waiters > 0 {
		if s.OldestWaiterAge >= w.cfg.StalledAfter {
			add(Stalled, ReasonWaiterWedged,
				fmt.Sprintf("oldest of %d pending waiters has waited %v (threshold %v)",
					s.Waiters, s.OldestWaiterAge, w.cfg.StalledAfter))
		} else if s.OldestWaiterAge >= w.cfg.PendingGrace &&
			w.hasPrev && s.Grants == w.prev.Grants {
			add(Degraded, ReasonPendingNoGrants,
				fmt.Sprintf("%d waiters pending for up to %v with no grants since the last evaluation",
					s.Waiters, s.OldestWaiterAge))
		}
	}

	// Wedged recovery rounds.
	if s.RoundsInFlight > 0 {
		switch {
		case s.OldestRoundAge >= 2*w.cfg.RoundGrace:
			add(Stalled, ReasonRecoveryWedged,
				fmt.Sprintf("oldest of %d recovery rounds in flight for %v (threshold %v)",
					s.RoundsInFlight, s.OldestRoundAge, 2*w.cfg.RoundGrace))
		case s.OldestRoundAge >= w.cfg.RoundGrace:
			add(Degraded, ReasonRecoverySlow,
				fmt.Sprintf("oldest of %d recovery rounds in flight for %v (threshold %v)",
					s.RoundsInFlight, s.OldestRoundAge, w.cfg.RoundGrace))
		}
	}

	// Fsync stall streaks: each evaluation window with new stalls
	// extends the streak; one clean window resets it.
	if w.hasPrev {
		if s.FsyncStalls > w.prev.FsyncStalls {
			w.fsyncStreak++
		} else {
			w.fsyncStreak = 0
		}
	}
	if w.fsyncStreak >= w.cfg.FsyncStreak {
		add(Degraded, ReasonFsyncStalls,
			fmt.Sprintf("journal fsync stalls in %d consecutive evaluations (%d total)",
				w.fsyncStreak, s.FsyncStalls))
	}

	// Unbounded queue growth, and bounded queues near their limit.
	if w.hasPrev {
		if s.QueueLen > w.prev.QueueLen {
			w.queueGrowth++
		} else {
			w.queueGrowth = 0
		}
	}
	if w.queueGrowth >= w.cfg.QueueGrowthEvals {
		add(Degraded, ReasonQueueGrowth,
			fmt.Sprintf("transport queues grew for %d consecutive evaluations (now %d queued)",
				w.queueGrowth, s.QueueLen))
	}
	if s.QueueLimit > 0 && s.QueueLen*10 >= s.QueueLimit*9 {
		add(Degraded, ReasonQueueNearLimit,
			fmt.Sprintf("transport queues at %d of the %d limit", s.QueueLen, s.QueueLimit))
	}

	w.prev = s
	w.hasPrev = true
	return Health{State: worst, Status: worst.String(), Reasons: reasons}
}
