package main

import (
	"fmt"
	"sync"

	"hierlock"
)

// maxCallers is the closed-loop caller count: one per core of the
// 2-core sandbox the benchmark is sized for, never more.
const maxCallers = 2

// oracle is the harness's own safety check, independent of the system's
// auditor: a holder table per resource, updated on every grant and
// before every release. Two holders in incompatible modes, or an
// exclusive (U/W) grant whose fence does not exceed the previous one on
// that resource, is a violation and fails the run.
type oracle struct {
	names []string
	res   []oracleRes

	mu         sync.Mutex
	violations int
	first      string
}

type oracleRes struct {
	mu    sync.Mutex
	held  [maxCallers]hierlock.Mode // zero value: not held
	fence hierlock.FenceToken       // last exclusive grant
}

func newOracle(t *resourceTable) *oracle {
	return &oracle{names: t.names, res: make([]oracleRes, len(t.names))}
}

func (o *oracle) flag(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.violations++
	if o.first == "" {
		o.first = fmt.Sprintf(format, args...)
	}
}

// count returns the number of violations and a description of the first.
func (o *oracle) count() (int, string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.violations, o.first
}

// hold records that caller now holds res in mode, checking it against
// every other holder; fenced grants also advance the resource's fence.
func (o *oracle) hold(caller, res int, mode hierlock.Mode, fenced bool, f hierlock.FenceToken) {
	r := &o.res[res]
	r.mu.Lock()
	defer r.mu.Unlock()
	for c, m := range r.held {
		if c != caller && !hierlock.Compatible(mode, m) {
			o.flag("%s: caller %d granted %v while caller %d holds %v", o.names[res], caller, mode, c, m)
		}
	}
	r.held[caller] = mode
	if fenced {
		if !r.fence.Less(f) {
			o.flag("%s: fence %v granted after %v", o.names[res], f, r.fence)
		}
		r.fence = f
	}
}

func exclusive(m hierlock.Mode) bool { return m == hierlock.U || m == hierlock.W }

// granted records a completed acquire of op; f is the leaf's fence.
func (o *oracle) granted(caller int, op *op, f hierlock.FenceToken) {
	last := len(op.holds) - 1
	for i, h := range op.holds {
		o.hold(caller, h.res, h.mode, i == last && exclusive(h.mode), f)
	}
}

// upgraded records the U→W upgrade of op's leaf.
func (o *oracle) upgraded(caller int, op *op, f hierlock.FenceToken) {
	o.hold(caller, op.holds[len(op.holds)-1].res, hierlock.W, true, f)
}

// releasing clears caller's holds; call it before the release is sent.
func (o *oracle) releasing(caller int, op *op) {
	for _, h := range op.holds {
		r := &o.res[h.res]
		r.mu.Lock()
		r.held[caller] = 0
		r.mu.Unlock()
	}
}
