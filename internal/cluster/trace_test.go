package cluster_test

import (
	"slices"
	"testing"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// TestTracedRun runs a traced workload and validates the recorded event
// stream: every grant has a preceding acquire, sends precede deliveries
// link-by-link (the FIFO meta-check), and message counts agree with the
// network's counters.
func TestTracedRun(t *testing.T) {
	rec := trace.New(1 << 16)
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    6,
		Locks:    []proto.LockID{1, 2},
		Seed:     21,
		Trace:    rec,
	})
	rng := c.Sim.NewRand()
	var loop func(i int)
	loop = func(i int) {
		lock := proto.LockID(1 + rng.Intn(2))
		m := modes.All[rng.Intn(5)]
		c.Nodes[i].Acquire(lock, m, func() {
			c.Sim.At(time.Duration(rng.Intn(20))*time.Millisecond, func() {
				c.Nodes[i].Release(lock)
				c.Sim.At(time.Duration(rng.Intn(100))*time.Millisecond, func() { loop(i) })
			})
		})
	}
	for i := 0; i < 6; i++ {
		loop(i)
	}
	c.Sim.Run(20 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("trace ring too small: %d dropped", rec.Dropped())
	}

	counts := rec.Counts()
	if counts[trace.OpAcquire] == 0 || counts[trace.OpGranted] == 0 || counts[trace.OpRelease] == 0 {
		t.Fatalf("missing client events: %v", counts)
	}
	if counts[trace.OpGranted] > counts[trace.OpAcquire] {
		t.Fatalf("more grants than acquires: %v", counts)
	}
	if counts[trace.OpSend] < counts[trace.OpDeliver] {
		t.Fatalf("more deliveries than sends: %v", counts)
	}
	if v := rec.CheckFIFO(); v != "" {
		t.Fatalf("FIFO violation observed in trace: %s", v)
	}
	// Sends in the trace match the network's metrics exactly.
	if uint64(counts[trace.OpSend]) != c.Net.Metrics.Total() {
		t.Fatalf("trace sends %d != network total %d", counts[trace.OpSend], c.Net.Metrics.Total())
	}
	// Per-node grant/acquire pairing per lock: grants never outnumber
	// acquires for any (node, lock).
	type key struct {
		n proto.NodeID
		l proto.LockID
	}
	acq := map[key]int{}
	gr := map[key]int{}
	for _, e := range rec.Entries() {
		switch e.Op {
		case trace.OpAcquire:
			acq[key{e.Node, e.Lock}]++
		case trace.OpGranted:
			gr[key{e.Node, e.Lock}]++
		}
	}
	for k, g := range gr {
		if g > acq[k] {
			t.Fatalf("node %d lock %d: %d grants for %d acquires", k.n, k.l, g, acq[k])
		}
	}
}

// TestSimTelemetry drives a deterministic 3-node acquisition through the
// simulator with a recorder attached and checks that the reconstructed
// causal path has the canonical acquire→token→grant shape with the token
// travelling 0 → 2 — the shape the live runtime's paths take
// (TestLiveTelemetrySpan at the repo root).
func TestSimTelemetry(t *testing.T) {
	rec := trace.New(1 << 12)
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{7},
		Seed:     1,
		Trace:    rec,
	})
	granted := false
	c.Nodes[2].Acquire(7, modes.W, func() { granted = true })
	c.Sim.Run(5 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("request never granted")
	}

	p := acquirePath(t, rec)
	if !p.Complete || p.Origin != 2 || p.Lock != 7 || p.Mode != modes.W {
		t.Fatalf("path: %+v", p)
	}
	if p.End <= p.Start {
		t.Fatalf("path duration = %v", p.End-p.Start)
	}
	if path := tokenPath(p); len(path) != 1 || path[0] != [2]proto.NodeID{0, 2} {
		t.Fatalf("token path = %v, want [0 → 2]", path)
	}
}

// acquirePath is the causal path of the one acquire in rec.
func acquirePath(t *testing.T, rec *trace.Recorder) *trace.CausalPath {
	t.Helper()
	var found *trace.CausalPath
	for _, p := range trace.AssembleCausal([]trace.Dump{rec.DumpLast(0)}) {
		if p.Steps[0].Op == trace.OpAcquire {
			if found != nil {
				t.Fatalf("two acquire paths: %v and %v", found.Trace, p.Trace)
			}
			found = p
		}
	}
	if found == nil {
		t.Fatalf("no acquire path in:\n%s", rec.String())
	}
	return found
}

// tokenPath is p's token hops as (from, to) pairs.
func tokenPath(p *trace.CausalPath) [][2]proto.NodeID {
	var out [][2]proto.NodeID
	for _, h := range p.Hops() {
		if h.Kind == proto.KindToken {
			out = append(out, [2]proto.NodeID{h.From, h.To})
		}
	}
	return out
}

// TestSimTelemetryDeterministic reconstructs the same path shape from
// two identically seeded runs: same step count, same token path, same
// duration — the property that makes simulator traces a debugging
// reference for live ones.
func TestSimTelemetryDeterministic(t *testing.T) {
	run := func() *trace.CausalPath {
		rec := trace.New(1 << 12)
		c := cluster.New(cluster.Config{
			Protocol: cluster.Hierarchical,
			Nodes:    3,
			Locks:    []proto.LockID{7},
			Seed:     42,
			Trace:    rec,
		})
		c.Nodes[2].Acquire(7, modes.W, func() {})
		c.Sim.Run(5 * time.Second)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return acquirePath(t, rec)
	}
	a, b := run(), run()
	if a.End-a.Start != b.End-b.Start || len(a.Steps) != len(b.Steps) {
		t.Fatalf("runs diverged: %v/%d vs %v/%d",
			a.End-a.Start, len(a.Steps), b.End-b.Start, len(b.Steps))
	}
	if pa, pb := tokenPath(a), tokenPath(b); !slices.Equal(pa, pb) {
		t.Fatalf("token paths diverged: %v vs %v", pa, pb)
	}
}
