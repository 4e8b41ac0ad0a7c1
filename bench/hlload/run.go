package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The run shape. Warm-up is by count, not time, so a slow machine warms
// the same state a fast one does. The measured part is a chain of cycles:
// a reading of the reference (see reference.go), then a slice of the
// workload. Every figure is computed per cycle, scaled by the readings on
// either side of it, and reported as the median over the cycles, so
// neither a co-tenant burst nor a slow drift of the machine ends up in
// the result.
const (
	warmupOps     = 20_000 // per client
	opTimeout     = 5 * time.Second
	workloadSlice = 500 * time.Millisecond
	cycleLength   = workloadSlice + refSlice
)

// cyclesFor is how many cycles fit the measured duration.
func cyclesFor(d time.Duration) int {
	if n := int(d / cycleLength); n > 1 {
		return n
	}
	return 1
}

// runSpec is one workload run.
type runSpec struct {
	workload string
	seed     int64
	cycles   int // 0: set-up and tear-down only
	warmup   int
	// layers snapshots the per-layer counters around the measured part
	// (the -traced run); the plain run reads nothing but clocks.
	layers bool
	// detached runs the cluster without lockd's telemetry, the
	// denominator of telemetry.ops_ratio.
	detached bool
	// addrs, when set, are the client addresses of already running lockd
	// processes to drive instead of an in-process cluster.
	addrs []string
}

// cycleStats is one cycle's figures: as the clock read them, and the
// machine's speed against nominal while it ran.
type cycleStats struct {
	opsPerS  float64
	p50, p99 float64   // acquire latency, ns
	cpuPerOp float64   // process CPU ns per completed op
	ref      refSample // the reference, read on either side of the slice
}

// runResult is what one run measured.
type runResult struct {
	setup             time.Duration
	setupSpeed        float64 // the reference against nominal, read before and after set-up
	cycles            []cycleStats
	samples           uint64 // latency samples = completed ops
	attempted, failed uint64 // failed: ERR replies, errors, timeouts, oracle violations
	peakRSSMB         float64
	layers            *layerDelta
	// problems lists correctness violations; any fails the run.
	problems []string
}

func (r *runResult) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// over returns the median over the cycles of f.
func (r *runResult) over(f func(c cycleStats) float64) float64 {
	vs := make([]float64, len(r.cycles))
	for i, c := range r.cycles {
		vs[i] = f(c)
	}
	return median(vs)
}

// The reported figures: per cycle at nominal machine speed, then the
// median. A machine running the reference 10 % fast has its throughput
// divided and its latencies multiplied by 1.1.
func (r *runResult) opsPerS() float64 {
	return r.over(func(c cycleStats) float64 { return c.opsPerS / c.ref.speed() })
}
func (r *runResult) p50US() float64 {
	return r.over(func(c cycleStats) float64 { return c.p50 * c.ref.speed() / 1000 })
}
func (r *runResult) p99US() float64 {
	return r.over(func(c cycleStats) float64 { return c.p99 * c.ref.speed() / 1000 })
}
func (r *runResult) setupS() float64 { return r.setup.Seconds() * r.setupSpeed }
func (r *runResult) cpuUSPerOp() float64 {
	return r.over(func(c cycleStats) float64 { return c.cpuPerOp * c.ref.speed() / 1000 })
}

// clientState is one closed-loop caller's side of a run.
type clientState struct {
	caller caller
	ref    *refKernel
	plan   *plan
	next   int // next index into the plan's stream

	// Per cycle; refs has one more entry, the reading after the last.
	hists   []hist
	ops     []uint64
	sliceNS []time.Duration // how long the slice really ran
	refs    []refSample

	attempted uint64
	failed    uint64
	fatal     error

	progress atomic.Uint64 // steps taken; watched by the timeout monitor
	timedOut atomic.Bool
}

// runner executes one runSpec.
type runner struct {
	spec    runSpec
	cluster *cluster
	oracle  *oracle
	clients []*clientState
	barrier *barrier
	stop    atomic.Bool
	// cpuMarks is the process's CPU time as client 0 read it right after
	// the first and the last barrier of every reference reading, so slice
	// c burned cpuMarks[2c+2] - cpuMarks[2c+1].
	cpuMarks []time.Duration
}

// doOp runs one acquire→release cycle and returns the acquire latency:
// request written to grant read, through the upgrade for a U op.
func (r *runner) doOp(ci int, c caller, o *op, t0 time.Time) (time.Duration, error) {
	f, err := c.acquire(o)
	if err != nil {
		return 0, err
	}
	r.oracle.granted(ci, o, f)
	if o.upgrade != nil {
		f, err = c.upgrade(o)
		if err != nil {
			r.oracle.releasing(ci, o)
			return 0, errors.Join(err, c.release(o))
		}
		r.oracle.upgraded(ci, o, f)
	}
	lat := time.Since(t0)
	r.oracle.releasing(ci, o)
	return lat, c.release(o)
}

// runOps drives n ops outside the measured part (key-touch, warm-up).
func (r *runner) runOps(ci int, ops func(i int) *op, n int) error {
	cs := r.clients[ci]
	for i := 0; i < n && !r.stop.Load(); i++ {
		cs.progress.Add(1)
		if _, err := r.doOp(ci, cs.caller, ops(i), time.Now()); err != nil {
			return fmt.Errorf("client %d: %w", ci, err)
		}
	}
	return nil
}

// readReference lines the callers up and has each read the reference on
// its own core, all at the same time.
func (r *runner) readReference(ci int) (refSample, error) {
	cs := r.clients[ci]
	mark := func() {
		if ci == 0 {
			r.cpuMarks = append(r.cpuMarks, cpuTime())
		}
	}
	if err := r.barrier.wait(); err != nil {
		return 0, err
	}
	mark()
	cs.progress.Add(1)
	s := cs.ref.read()
	if err := r.barrier.wait(); err != nil {
		return 0, err
	}
	mark()
	return s, nil
}

// slice is the closed loop: zero think time, zero hold time, for one
// workload slice.
func (r *runner) slice(ci, cycle int) {
	cs := r.clients[ci]
	start := time.Now()
	end := start.Add(workloadSlice)
	for !r.stop.Load() {
		t0 := time.Now()
		if !t0.Before(end) {
			cs.sliceNS[cycle] = t0.Sub(start)
			return
		}
		cs.attempted++
		cs.progress.Add(1)
		lat, err := r.doOp(ci, cs.caller, cs.plan.at(cs.next), t0)
		cs.next++
		if err != nil {
			cs.failed++
			var re *replyError
			if !errors.As(err, &re) {
				cs.fatal = err
				return
			}
			continue
		}
		cs.hists[cycle].record(int64(lat))
		cs.ops[cycle]++
	}
}

// measure is one client's measured part: reference, slice, reference,
// slice ... reference. A client that cannot go on releases the other.
func (r *runner) measure(ci int) {
	cs := r.clients[ci]
	defer func() {
		if cs.fatal != nil || r.stop.Load() {
			r.barrier.abort()
		}
	}()
	for cycle := 0; cycle <= r.spec.cycles; cycle++ {
		s, err := r.readReference(ci)
		if err != nil {
			return // the barrier broke: another caller has recorded why
		}
		cs.refs = append(cs.refs, s)
		if cycle < r.spec.cycles {
			r.slice(ci, cycle)
			if cs.fatal != nil || r.stop.Load() {
				return
			}
		}
	}
}

// startMonitor watches the callers from now until the returned stop
// function is called: one that makes no progress for opTimeout is
// aborted, and all of them are on interrupt, so a wedged system fails the
// run instead of hanging it. It costs the op path one atomic add.
func (r *runner) startMonitor(ctx context.Context) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := make([]uint64, len(r.clients))
		since := make([]time.Time, len(r.clients))
		for i := range since {
			since[i] = time.Now()
		}
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				r.stop.Store(true)
				r.barrier.abort()
				for _, cs := range r.clients {
					cs.caller.abort()
				}
				return
			case now := <-tick.C:
				for i, cs := range r.clients {
					if p := cs.progress.Load(); p != last[i] {
						last[i], since[i] = p, now
					} else if now.Sub(since[i]) > opTimeout && !cs.timedOut.Swap(true) {
						cs.caller.abort()
					}
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// both runs fn for every client concurrently and joins their errors.
func (r *runner) both(fn func(ci int) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for ci := range r.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = fn(ci)
		}(ci)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// readReferences has every client read the reference once, outside the
// measured part, and returns their mean.
func (r *runner) readReferences() (refSample, error) {
	samples := make([]refSample, len(r.clients))
	err := r.both(func(ci int) error {
		s, err := r.readReference(ci)
		samples[ci] = s
		return err
	})
	return meanRef(samples...), err
}

// connect brings the system up and attaches one caller per client:
// client 0 to node 1, client 1 to node 2 (node 0 is the root and serves
// no client).
func (r *runner) connect() error {
	addrs := r.spec.addrs
	if addrs == nil {
		c, err := startCluster(!r.spec.detached)
		if err != nil {
			return err
		}
		r.cluster = c
		for _, n := range c.nodes {
			addrs = append(addrs, n.addr)
		}
	}
	for ci, cs := range r.clients {
		if r.spec.workload == wlEmbedded {
			cs.caller = newMemberCaller(r.cluster.nodes[1+ci].m)
			continue
		}
		lc, err := dialLine(addrs[1+ci])
		if err != nil {
			return err
		}
		cs.caller = lc
	}
	return nil
}

// prepare is the rest of set-up once the callers are attached: the
// key-touch pass (every op once, client by client, so tokens and copysets
// sit where steady state leaves them) and the warm-up.
func (r *runner) prepare() error {
	for ci, cs := range r.clients {
		ops := cs.plan.ops
		if err := r.runOps(ci, func(i int) *op { return &ops[i] }, len(ops)); err != nil {
			return fmt.Errorf("key-touch: %w", err)
		}
	}
	err := r.both(func(ci int) error {
		cs := r.clients[ci]
		err := r.runOps(ci, cs.plan.at, r.spec.warmup)
		cs.next = r.spec.warmup
		return err
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// drain checks that every client ended up holding nothing, then closes
// the callers.
func (r *runner) drain(res *runResult) {
	for ci, cs := range r.clients {
		if cs.caller == nil {
			continue
		}
		if lc, ok := cs.caller.(*lineCaller); ok && cs.fatal == nil && !r.stop.Load() {
			cs.progress.Add(1)
			if held, err := lc.held(); err != nil {
				res.problems = append(res.problems, fmt.Sprintf("client %d HELD: %v", ci, err))
			} else if held != "" {
				res.problems = append(res.problems, fmt.Sprintf("client %d still holds %q", ci, held))
			}
		}
		_ = cs.caller.close()
	}
}

// closeCluster runs the cluster-side end-of-run checks and takes the
// cluster down; a no-op when the run drove external processes.
func (r *runner) closeCluster(res *runResult) {
	if r.cluster == nil {
		return
	}
	if !r.stop.Load() {
		if err := r.cluster.verify(); err != nil {
			res.problems = append(res.problems, err.Error())
		}
	}
	if err := r.cluster.close(); err != nil {
		res.problems = append(res.problems, err.Error())
	}
}

func newRunner(spec runSpec) (*runner, error) {
	r := &runner{spec: spec, barrier: newBarrier(maxCallers)}
	var table resourceTable
	for ci := 0; ci < maxCallers; ci++ {
		p, err := buildPlan(spec.workload, spec.seed, ci, &table)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, &clientState{
			plan:    p,
			ref:     newRefKernel(),
			hists:   make([]hist, spec.cycles),
			ops:     make([]uint64, spec.cycles),
			sliceNS: make([]time.Duration, spec.cycles),
		})
	}
	r.oracle = newOracle(&table)
	return r, nil
}

// runWorkload executes one run end to end. The error is for runs that
// could not be carried out; correctness findings are in the result.
func runWorkload(ctx context.Context, spec runSpec) (*runResult, error) {
	r, err := newRunner(spec)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	err = r.run(ctx, res)
	r.closeCluster(res)
	if ctx.Err() != nil {
		// The callers were aborted; their errors only say so.
		return nil, fmt.Errorf("interrupted: %w", ctx.Err())
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (r *runner) run(ctx context.Context, res *runResult) error {
	// Set-up is timed from bring-up to the end of the warm-up, with a
	// reading of the reference on either side of it.
	refBefore, err := r.readReferences()
	if err != nil {
		return err
	}
	started := time.Now()
	if err := r.connect(); err != nil {
		r.drain(res)
		return err
	}
	stopMonitor := r.startMonitor(ctx)
	defer stopMonitor()
	defer r.drain(res) // before the monitor stops: it bounds the HELD round trips
	if err := r.prepare(); err != nil {
		return err
	}
	res.setup = time.Since(started)
	if r.spec.cycles == 0 {
		refAfter, err := r.readReferences()
		res.setupSpeed = meanRef(refBefore, refAfter).speed()
		return errors.Join(err, ctx.Err())
	}

	var before snapshot
	if r.spec.layers {
		before = r.cluster.snapshot()
	}
	r.cpuMarks = nil
	_ = r.both(func(ci int) error { r.measure(ci); return nil })
	res.peakRSSMB = peakRSSMB()
	if err := ctx.Err(); err != nil {
		return err
	}
	r.collect(res)
	if len(res.cycles) > 0 {
		// The measured part opens with a reading: the one after set-up.
		var opening []refSample
		for _, cs := range r.clients {
			opening = append(opening, cs.refs[0])
		}
		res.setupSpeed = meanRef(refBefore, meanRef(opening...)).speed()
	}
	if r.spec.layers {
		res.layers = r.cluster.snapshot().since(before)
	}
	return nil
}

// collect folds the clients' cycles into the result.
func (r *runner) collect(res *runResult) {
	for ci, cs := range r.clients {
		res.attempted += cs.attempted
		res.failed += cs.failed
		if cs.timedOut.Load() {
			res.problems = append(res.problems, fmt.Sprintf("client %d: no reply within %v", ci, opTimeout))
		} else if cs.fatal != nil {
			res.problems = append(res.problems, fmt.Sprintf("client %d: %v", ci, cs.fatal))
		}
	}
	if n, first := r.oracle.count(); n > 0 {
		res.failed += uint64(n)
		res.problems = append(res.problems, fmt.Sprintf("oracle: %d violations, first: %s", n, first))
	}
	for cycle := 0; cycle < r.spec.cycles; cycle++ {
		var st cycleStats
		var h hist
		var ops uint64
		var refs []refSample
		for _, cs := range r.clients {
			if len(cs.refs) < cycle+2 || cs.sliceNS[cycle] == 0 {
				return // the run broke off here; its problems are recorded
			}
			h.merge(&cs.hists[cycle])
			ops += cs.ops[cycle]
			st.opsPerS += float64(cs.ops[cycle]) / cs.sliceNS[cycle].Seconds()
			refs = append(refs, cs.refs[cycle], cs.refs[cycle+1])
		}
		ref := meanRef(refs...)
		st.ref = ref
		st.p50, st.p99 = h.quantile(0.50), h.quantile(0.99)
		st.cpuPerOp = ratio(float64(r.cpuMarks[2*cycle+2]-r.cpuMarks[2*cycle+1]), float64(ops))
		res.samples += ops
		res.cycles = append(res.cycles, st)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
