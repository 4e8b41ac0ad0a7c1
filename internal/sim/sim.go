// Package sim is a deterministic discrete-event simulator used to emulate
// the paper's 120-node cluster on one machine. Virtual time advances only
// when events fire, so a two-minute experiment over 150 ms links completes
// in milliseconds of wall-clock time while preserving exactly the
// quantities the paper reports: message counts and latencies measured as
// multiples of the mean point-to-point latency.
//
// The simulator is single-threaded: event callbacks run sequentially in
// timestamp order (ties broken by scheduling order), so simulated nodes
// need no synchronization. Randomness comes from seeded streams, making
// every run reproducible.
package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"time"
)

// Sim is a discrete-event scheduler. Create with New.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	nfired uint64
	master *rand.Rand
}

// New creates a simulator whose random streams derive from seed.
func New(seed int64) *Sim {
	return &Sim{master: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Fired returns the number of events processed so far.
func (s *Sim) Fired() uint64 { return s.nfired }

// NewRand derives an independent, reproducible random stream.
func (s *Sim) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(s.master.Int63()))
}

// At schedules fn to run after delay of virtual time. Negative delays are
// clamped to zero (fn runs "now", after currently queued events at the
// same instant).
func (s *Sim) At(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Run processes events until the queue is empty or virtual time would
// exceed `until`. It returns the number of events fired. Events scheduled
// exactly at `until` are processed.
func (s *Sim) Run(until time.Duration) uint64 {
	fired := uint64(0)
	for len(s.events) > 0 {
		next := s.events[0]
		if next.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = next.at
		next.fn()
		fired++
		s.nfired++
	}
	if s.now < until {
		s.now = until
	}
	return fired
}

// Pending returns the number of scheduled events not yet fired.
func (s *Sim) Pending() int { return len(s.events) }

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Dist is a randomized duration distribution.
type Dist func(rng *rand.Rand) time.Duration

// Exponential returns an exponential distribution with the given mean,
// truncated at 10× the mean to keep simulated tails bounded.
func Exponential(mean time.Duration) Dist {
	return func(rng *rand.Rand) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		if max := 10 * mean; d > max {
			d = max
		}
		return d
	}
}

// Uniform returns a uniform distribution on [lo, hi].
func Uniform(lo, hi time.Duration) Dist {
	if hi < lo {
		lo, hi = hi, lo
	}
	return func(rng *rand.Rand) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
	}
}

// UniformAround returns a uniform distribution on [mean/2, 3·mean/2],
// the default model for the paper's "randomized with mean" parameters.
func UniformAround(mean time.Duration) Dist {
	return Uniform(mean/2, mean+mean/2)
}

// Fixed returns a degenerate distribution.
func Fixed(d time.Duration) Dist {
	return func(*rand.Rand) time.Duration { return d }
}

// MeanOf estimates the mean of a distribution by sampling (testing aid).
func MeanOf(d Dist, rng *rand.Rand, samples int) time.Duration {
	var sum float64
	for i := 0; i < samples; i++ {
		sum += float64(d(rng))
	}
	return time.Duration(math.Round(sum / float64(samples)))
}
