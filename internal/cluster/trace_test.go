package cluster_test

import (
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
// span has the canonical acquire→token→grant shape with the token
// travelling 0 → 2 — the shape the live runtime's spans take
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

	spans := trace.Assemble(rec.Entries())
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if !sp.Complete || sp.Node != 2 || sp.Lock != 7 || sp.Mode != modes.W {
		t.Fatalf("span: %+v", sp)
	}
	if sp.Duration() <= 0 {
		t.Fatalf("span duration = %v", sp.Duration())
	}
	if path := sp.TokenPath(); len(path) != 2 || path[0] != 0 || path[1] != 2 {
		t.Fatalf("token path = %v, want [0 2]", path)
	}
}

// TestSimTelemetryDeterministic reconstructs the same span shape from
// two identically seeded runs: same step count, same token path, same
// duration — the property that makes simulator traces a debugging
// reference for live ones.
func TestSimTelemetryDeterministic(t *testing.T) {
	run := func() *trace.Span {
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
		spans := trace.Assemble(rec.Entries())
		if len(spans) != 1 {
			t.Fatalf("spans = %d", len(spans))
		}
		return spans[0]
	}
	a, b := run(), run()
	if a.Duration() != b.Duration() || len(a.Steps) != len(b.Steps) {
		t.Fatalf("runs diverged: %v/%d vs %v/%d",
			a.Duration(), len(a.Steps), b.Duration(), len(b.Steps))
	}
	pa, pb := a.TokenPath(), b.TokenPath()
	if len(pa) != len(pb) {
		t.Fatalf("token paths diverged: %v vs %v", pa, pb)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("token paths diverged: %v vs %v", pa, pb)
		}
	}
}
