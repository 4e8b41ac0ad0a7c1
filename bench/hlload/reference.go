package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// The reference. This sandbox's speed moves by tens of percent within
// seconds and between runs (identical code measured 220k–370k ops/s on
// embedded-local, 8k–16k on hot-key), far more than any bound a
// regression gate could use. So the measured run interleaves the
// workload with a fixed reference kernel written here, with none of the
// system's code in it, and every time-based metric is reported at the
// reference's nominal speed: what the run would have read on a machine on
// which the kernel runs exactly as fast as nominal. Raw figures and the
// reference's own readings are printed beside them.
//
// The kernel is dependent loads and stores over a 128 KiB table with a
// mutex and an atomic every 16th step: the flavour of a lock manager's
// code. Every caller steps its own kernel on its own core at the same
// time, so the reading is taken under the load the workload runs under.
// A loopback round trip to an echo server was tried as a second part of
// the reference; it moves with the kernel (correlation 0.8–0.9 between
// runs) and scaling by the kernel alone left the smaller spread between
// identical runs on most workloads (see the README), so it was dropped.
const (
	refSlice      = 50 * time.Millisecond // per reading
	nominalStepNS = 3.0                   // this sandbox's median when the benchmark was defined; only fixes the scale
)

// refSample is a reading of the reference: nanoseconds per kernel step.
type refSample float64

// speed is how fast the machine is against nominal (1 = nominal, above =
// faster).
func (s refSample) speed() float64 { return nominalStepNS / float64(s) }

func meanRef(samples ...refSample) refSample {
	var m refSample
	for _, s := range samples {
		m += s / refSample(len(samples))
	}
	return m
}

// refKernel is one caller's private reference kernel.
type refKernel struct {
	table []uint64
	mu    sync.Mutex
	count atomic.Uint64
	state uint64
}

func newRefKernel() *refKernel { return &refKernel{table: make([]uint64, 16<<10), state: 1} }

// read steps the kernel for refSlice and returns the time per step.
func (k *refKernel) read() refSample {
	const chunk = 4096
	mask := uint64(len(k.table) - 1)
	idx, sum := k.state, uint64(0)
	start := time.Now()
	for steps := 0; ; {
		for i := 0; i < chunk; i++ {
			idx = idx*6364136223846793005 + 1442695040888963407
			j := (idx >> 33) & mask
			sum += k.table[j]
			k.table[j] = sum ^ idx
			if i&15 == 0 {
				k.mu.Lock()
				k.count.Add(1)
				k.mu.Unlock()
			}
		}
		steps += chunk
		if el := time.Since(start); el >= refSlice {
			k.state = idx ^ sum
			return refSample(float64(el) / float64(steps))
		}
	}
}

// errBarrierBroken is returned to every party once one has given up.
var errBarrierBroken = errors.New("another caller stopped")

// barrier lines n goroutines up, repeatedly. A party that cannot go on
// breaks it, which releases the others with errBarrierBroken.
type barrier struct {
	n      int
	mu     sync.Mutex
	count  int
	gate   chan struct{} // closed when the current round is complete
	broken chan struct{}
	once   sync.Once
}

func newBarrier(n int) *barrier {
	return &barrier{n: n, gate: make(chan struct{}), broken: make(chan struct{})}
}

func (b *barrier) wait() error {
	b.mu.Lock()
	gate := b.gate
	b.count++
	if b.count == b.n {
		b.count, b.gate = 0, make(chan struct{})
		close(gate)
	}
	b.mu.Unlock()
	select {
	case <-gate:
		return nil
	case <-b.broken:
		return errBarrierBroken
	}
}

func (b *barrier) abort() { b.once.Do(func() { close(b.broken) }) }
