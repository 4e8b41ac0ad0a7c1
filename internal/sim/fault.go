package sim

import (
	"math/rand"
	"time"
)

// FaultPlan describes the failures injected into a simulated network run.
// Like the latency model, every random choice derives from the simulator's
// seed, so a plan replays identically: same seed, same drops, same final
// delivery schedule.
//
// The plan models faults *below* a reliable link layer (the role TCP plus
// the transport's ack/retransmit sublayer play in a live deployment): a
// dropped frame is retransmitted after RetransmitTimeout, a duplicated
// frame is suppressed by receiver-side sequence numbers, and messages into
// a partition or a crashed node wait until the path heals. Faults therefore
// turn into extra latency and counted events, never into silent loss,
// duplication or reordering — exactly the delivery contract the protocol
// engines assume, obtained the same way a real cluster obtains it.
type FaultPlan struct {
	// DropRate is the per-transmission probability in [0, 1] that a frame
	// is lost and must be retransmitted after RetransmitTimeout.
	DropRate float64
	// DupRate is the per-message probability that the link delivers a
	// duplicate frame; the duplicate is suppressed by the receiver's
	// sequence check and only shows up in the fault counters.
	DupRate float64
	// SpikeRate is the per-message probability of an additional delay
	// spike of SpikeDelay on top of the normal latency sample.
	SpikeRate float64
	// SpikeDelay distributes the extra delay of a spike (default: fixed 1s).
	SpikeDelay Dist
	// RetransmitTimeout is the reliable-link recovery delay after a lost
	// frame and the probe interval against a partitioned or crashed
	// destination (default 200ms).
	RetransmitTimeout time.Duration
	// Partitions lists scheduled link cuts.
	Partitions []Partition
	// Crashes lists scheduled node downtime windows.
	Crashes []CrashWindow
}

// Partition cuts the link between two nodes for [Start, End) of virtual
// time. By default the cut is symmetric; OneWay cuts only A→B traffic.
type Partition struct {
	A, B   int
	OneWay bool
	Start  time.Duration
	End    time.Duration
}

// CrashWindow takes one node down for [Start, End) of virtual time. The
// model is fail-stop with durable state (a process freeze or reboot that
// keeps its disk): the node processes nothing while down, and frames
// addressed to it wait in the senders' retransmit buffers until restart.
// Crashes that lose state, and the recovery they need, are exercised on
// the live runtime.
type CrashWindow struct {
	Node  int
	Start time.Duration
	End   time.Duration
}

// Outcome reports what the fault layer did to one message.
type Outcome struct {
	// Deliver is the final delivery time.
	Deliver time.Duration
	// Drops counts transmissions lost to random drop (each one cost a
	// retransmit after RetransmitTimeout).
	Drops int
	// Duplicates counts duplicate frames generated (and suppressed by the
	// receiver's sequence check).
	Duplicates int
	// Spikes counts delay spikes applied.
	Spikes int
	// Deferrals counts waits against a partitioned link or crashed node.
	Deferrals int
}

// Faults is the runtime form of a FaultPlan: the plan plus the seeded
// random stream its probabilistic choices draw from. Create with
// NewFaults; use one per Network.
type Faults struct {
	plan FaultPlan
	rng  *rand.Rand
}

// NewFaults compiles a plan with its dedicated random stream (derive it
// from the simulator with Sim.NewRand for reproducibility).
func NewFaults(plan FaultPlan, rng *rand.Rand) *Faults {
	if plan.RetransmitTimeout <= 0 {
		plan.RetransmitTimeout = 200 * time.Millisecond
	}
	if plan.SpikeDelay == nil {
		plan.SpikeDelay = Fixed(time.Second)
	}
	return &Faults{plan: plan, rng: rng}
}

// DownAt reports whether node is inside a crash window at time at.
func (f *Faults) DownAt(node int, at time.Duration) bool {
	_, down := f.downUntil(node, at)
	return down
}

// RestartAt returns the end of the crash window covering node at time at
// (at itself when the node is up).
func (f *Faults) RestartAt(node int, at time.Duration) time.Duration {
	if until, down := f.downUntil(node, at); down {
		return until
	}
	return at
}

func (f *Faults) downUntil(node int, at time.Duration) (time.Duration, bool) {
	until, down := time.Duration(0), false
	for _, c := range f.plan.Crashes {
		if c.Node == node && at >= c.Start && at < c.End && c.End > until {
			until, down = c.End, true
		}
	}
	return until, down
}

// blockedUntil reports whether the from→to path is unusable at time at
// (directed partition cut or destination down) and, if so, when it heals.
func (f *Faults) blockedUntil(from, to int, at time.Duration) (time.Duration, bool) {
	until, blocked := time.Duration(0), false
	for _, p := range f.plan.Partitions {
		if at < p.Start || at >= p.End {
			continue
		}
		if (p.A == from && p.B == to) || (!p.OneWay && p.A == to && p.B == from) {
			if p.End > until {
				until, blocked = p.End, true
			}
		}
	}
	if u, down := f.downUntil(to, at); down && u > until {
		until, blocked = u, true
	}
	return until, blocked
}

// Apply runs one message through the fault model. send is the virtual send
// time and latency samples the network's per-transmission delay. The
// outcome's Deliver is always a valid time ≥ send: the reliable link keeps
// retransmitting until the frame gets through.
func (f *Faults) Apply(from, to int, send time.Duration, latency func() time.Duration) Outcome {
	out := Outcome{}
	rto := f.plan.RetransmitTimeout
	tx := send
	// Cap the recovery loop defensively; with DropRate < 1 and finite
	// fault windows it terminates long before this.
	for i := 0; i < 10000; i++ {
		if until, blocked := f.blockedUntil(from, to, tx); blocked {
			// The sender probes every RTO; it gets through within one RTO
			// of the heal.
			out.Deferrals++
			tx = until + rto
			continue
		}
		if f.plan.DropRate > 0 && f.rng.Float64() < f.plan.DropRate {
			out.Drops++
			tx += rto
			continue
		}
		d := latency()
		if f.plan.SpikeRate > 0 && f.rng.Float64() < f.plan.SpikeRate {
			out.Spikes++
			d += f.plan.SpikeDelay(f.rng)
		}
		arrive := tx + d
		// The destination crashed while the frame was in flight: it is
		// retransmitted once the node restarts.
		if until, down := f.downUntil(to, arrive); down {
			out.Deferrals++
			tx = until + rto
			continue
		}
		if f.plan.DupRate > 0 && f.rng.Float64() < f.plan.DupRate {
			out.Duplicates++
		}
		out.Deliver = arrive
		return out
	}
	out.Deliver = tx
	return out
}
