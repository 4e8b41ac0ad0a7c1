//go:build !race

package hierlock_test

// Allocation guards for the member's client hot path, bare and with
// telemetry — including the per-operation latency SLO histograms —
// attached and recording. A resident-token Lock/Unlock pair allocates one
// object, the Lock handle: the engine hands the immediate grant's event
// back in storage of its own, the waiter, its wake-up channel and the
// hold are the lock entry's, and a hold on a resident token writes no
// journal record — with or without a journal. The budgets are pinned so
// instrumentation added later must stay allocation-neutral: a sample is
// a plain word in the lock's stripe or a handle-indexed atomic, never
// label formatting. The
// race detector's instrumentation defeats testing.AllocsPerRun, so
// these compile out under -race; `make ci` runs them in the plain pass.

import (
	"context"
	"runtime"
	"testing"

	"hierlock"
	"hierlock/internal/metrics"
)

func TestMemberLockUnlockAllocsBare(t *testing.T) {
	c, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	ctx := context.Background()
	const budget = 1 // BenchmarkMemberMultiLockContended allocs/op
	got := testing.AllocsPerRun(500, func() {
		l, err := m.Lock(ctx, "alloc-guard", hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("local Lock/Unlock with no telemetry allocates %.1f objects/op, budget %d", got, budget)
	}
}

func TestMemberLockUnlockAllocsWithTelemetry(t *testing.T) {
	c, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	m.SetTelemetry(hierlock.Telemetry{Registry: metrics.NewRegistry()})
	ctx := context.Background()
	const budget = 1
	got := testing.AllocsPerRun(500, func() {
		l, err := m.Lock(ctx, "alloc-guard", hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("local Lock/Unlock with telemetry allocates %.1f objects/op, budget %d", got, budget)
	}
}

func TestMemberJournaledLockUnlockAllocsWithTelemetry(t *testing.T) {
	m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
		ID:         0,
		ListenAddr: "127.0.0.1:0",
		DataDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetTelemetry(hierlock.Telemetry{Registry: metrics.NewRegistry()})
	ctx := context.Background()
	const budget = 1 // BenchmarkMemberJournaledGrant allocs/op
	got := testing.AllocsPerRun(500, func() {
		l, err := m.Lock(ctx, "journal-alloc-guard", hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("journaled Lock/Unlock with telemetry allocates %.1f objects/op, budget %d", got, budget)
	}
}

// The same pair under everything cmd/lockd attaches by default — ring,
// auditor and incident recorder included: staging a trace entry, counting
// a metric and checking a grant allocate nothing per operation (the
// staging buffers are allocated once, during the
// warm-up run AllocsPerRun makes), and neither does admission, which
// allocates only for an arrival that finds the lock's slot taken. The
// taps see one entry per pair — exactly, once anybody reads — and a reader
// of the ring three.
func TestMemberLockUnlockAllocsWithDefaultWiring(t *testing.T) {
	c, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	reg, rec, aud, _ := attachDefaultTelemetry(m)
	ctx := context.Background()
	const budget = 1 // BenchmarkMemberDefaultTelemetry allocs/op
	got := testing.AllocsPerRun(500, func() {
		l, err := m.Lock(ctx, "alloc-guard", hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("local Lock/Unlock under the default wiring allocates %.1f objects/op, budget %d", got, budget)
	}
	// The auditor is asked first: it pulls the staged operations in
	// itself, no ring read before it.
	if n := aud.Snapshot().Entries; n != 501 {
		t.Errorf("the auditor saw %d entries, want one per pair (%d)", n, 501)
	}
	if n, c := rec.Len(), reg.Counter(metrics.MetricAuditEntries, "", nil).Value(); n != 3*501 || c != 501 {
		t.Errorf("ring holds %d entries and %s = %d, want %d and %d", n, metrics.MetricAuditEntries, c, 3*501, 501)
	}

	// The one object is the 64-byte handle: bytes, not only objects, so the
	// handle cannot grow into the next size class unnoticed.
	const pairs, byteBudget = 500, 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		l, err := m.Lock(ctx, "alloc-guard", hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / pairs; b > byteBudget {
		t.Errorf("local Lock/Unlock under the default wiring allocates %d bytes/op, budget %d", b, byteBudget)
	}
}

// TestLockdWiringStandingHeap: what a node's telemetry keeps standing,
// wired as cmd/lockd wires it, is its trace ring and little else — the
// incident recorder holds no ring beside it, and the ring keeps each entry
// in a 48-byte slot, not an 88-byte trace.Entry. A byte count, so the
// machine's speed does not move it.
func TestLockdWiringStandingHeap(t *testing.T) {
	const ring = 4096
	// slot is what the ring keeps per entry (internal/trace's
	// TestSlotSize pins it); margin covers the registry's series, the
	// auditor's stripes and the member's collectors. A ring of Entries
	// would be 4096 × 88 B = 352 KiB, 160 KiB over this budget.
	const slot, margin = 48, 64 << 10
	c, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reg, rec, aud, bb := hierlock.AttachLockdWiring(m, ring)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(reg)
	runtime.KeepAlive(rec)
	runtime.KeepAlive(aud)
	runtime.KeepAlive(bb)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	budget := int64(ring*slot + margin)
	t.Logf("standing telemetry heap %d B (ring %d B, budget %d B)", delta, ring*slot, budget)
	if delta > budget {
		t.Fatalf("attaching lockd's wiring keeps %d B standing, budget %d B: a %d-entry ring and %d B of the rest", delta, budget, ring, margin)
	}
}
