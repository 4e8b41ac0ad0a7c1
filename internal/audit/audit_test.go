package audit

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func send(kind proto.Kind, lock proto.LockID, mode modes.Mode, from, to proto.NodeID) trace.Entry {
	return trace.Entry{Op: trace.OpSend, Node: from, Kind: kind, Lock: lock, Mode: mode, From: from, To: to}
}

func deliver(kind proto.Kind, lock proto.LockID, mode modes.Mode, from, to proto.NodeID) trace.Entry {
	return trace.Entry{Op: trace.OpDeliver, Node: to, Kind: kind, Lock: lock, Mode: mode, From: from, To: to}
}

func granted(lock proto.LockID, mode modes.Mode, node proto.NodeID) trace.Entry {
	return trace.Entry{Op: trace.OpGranted, Node: node, Lock: lock, Mode: mode}
}

func release(lock proto.LockID, mode modes.Mode, node proto.NodeID) trace.Entry {
	return trace.Entry{Op: trace.OpRelease, Node: node, Lock: lock, Mode: mode}
}

func feed(a *Auditor, entries ...trace.Entry) {
	for _, e := range entries {
		a.Record([]trace.Entry{e})
	}
}

// TestCleanStream replays a healthy protocol exchange — token transfer,
// copy grant, compatible concurrent readers, paired release — and
// expects zero violations.
func TestCleanStream(t *testing.T) {
	a := New(Config{Root: 0})
	feed(a,
		// Node 2 requests W; token travels 0 → 2.
		send(proto.KindRequest, 7, modes.W, 2, 0),
		deliver(proto.KindRequest, 7, modes.W, 2, 0),
		send(proto.KindToken, 7, modes.W, 0, 2),
		deliver(proto.KindToken, 7, modes.W, 0, 2),
		granted(7, modes.W, 2),
		release(7, modes.W, 2),
		// Node 1 requests R; holder 2 copy-grants; node 0 reads too.
		send(proto.KindRequest, 7, modes.R, 1, 2),
		deliver(proto.KindRequest, 7, modes.R, 1, 2),
		granted(7, modes.R, 2),
		send(proto.KindGrant, 7, modes.R, 2, 1),
		deliver(proto.KindGrant, 7, modes.R, 2, 1),
		granted(7, modes.R, 1),
		// Node 1 releases to its granter.
		release(7, modes.R, 1),
		send(proto.KindRelease, 7, modes.R, 1, 2),
		deliver(proto.KindRelease, 7, modes.R, 1, 2),
	)
	if n := a.Violations(); n != 0 {
		t.Fatalf("clean stream flagged %d violations: %+v", n, a.Snapshot().Violations)
	}
	rep := a.Snapshot()
	if rep.Entries != 15 {
		t.Errorf("entries = %d, want 15", rep.Entries)
	}
	for _, inv := range Invariants {
		if _, ok := rep.ByCheck[inv]; !ok {
			t.Errorf("report missing invariant %q", inv)
		}
	}
}

func TestMutualExclusionViolation(t *testing.T) {
	a := New(Config{Root: 0})
	feed(a,
		granted(1, modes.W, 0),
		granted(1, modes.R, 1), // R vs W: incompatible
	)
	rep := a.Snapshot()
	if rep.ByCheck[InvMutualExclusion] != 1 {
		t.Fatalf("mutual_exclusion = %d, want 1; %+v", rep.ByCheck[InvMutualExclusion], rep)
	}
	if !strings.Contains(rep.Violations[0].Detail, "holds W") {
		t.Errorf("detail = %q", rep.Violations[0].Detail)
	}
	// Compatible pair and re-grant on the same node must not flag.
	b := New(Config{Root: 0})
	feed(b,
		granted(1, modes.IR, 0),
		granted(1, modes.IW, 1), // IR vs IW: compatible
		granted(2, modes.R, 2),
		granted(2, modes.W, 2), // same-node upgrade, no other holders
	)
	if n := b.Snapshot().ByCheck[InvMutualExclusion]; n != 0 {
		t.Errorf("compatible grants flagged %d", n)
	}
}

func TestTokenConservationViolations(t *testing.T) {
	// Send by non-holder: root 0 holds the token, node 1 ships one anyway.
	a := New(Config{Root: 0})
	feed(a, send(proto.KindToken, 3, modes.W, 1, 2))
	if n := a.Snapshot().ByCheck[InvTokenConservation]; n != 1 {
		t.Fatalf("non-holder send: %d violations, want 1", n)
	}

	// Duplicate: a second token sent while the first is in flight.
	b := New(Config{Root: 0})
	feed(b,
		send(proto.KindToken, 3, modes.W, 0, 1),
		send(proto.KindToken, 3, modes.W, 0, 2),
	)
	if n := b.Snapshot().ByCheck[InvTokenConservation]; n != 1 {
		t.Fatalf("duplicate send: %d violations, want 1", n)
	}

	// Misdelivery: in flight 0→1 but lands on 2.
	c := New(Config{Root: 0})
	feed(c,
		send(proto.KindToken, 3, modes.W, 0, 1),
		deliver(proto.KindToken, 3, modes.W, 0, 2),
	)
	if n := c.Snapshot().ByCheck[InvTokenConservation]; n != 1 {
		t.Fatalf("misdelivery: %d violations, want 1", n)
	}

	// Unknown root: first observation seeds the holder, no false alarms.
	d := New(Config{Root: proto.NoNode})
	feed(d,
		send(proto.KindToken, 3, modes.W, 4, 5),
		deliver(proto.KindToken, 3, modes.W, 4, 5),
		send(proto.KindToken, 3, modes.W, 5, 6),
	)
	if n := d.Violations(); n != 0 {
		t.Fatalf("unknown-root stream flagged %d", n)
	}
}

// TestTokenConservationPartialStream replays what a single node's local
// trace ring sees (the lockd per-node auditor): node 0 ships the token
// to node 2 and never observes the remote delivery, then the token
// comes back from node 1 after unobserved hops 2→1→0. That is a
// healthy run, not a misdelivery — only a delivery from the *same*
// sender to the wrong addressee proves misrouting.
func TestTokenConservationPartialStream(t *testing.T) {
	a := New(Config{Root: 0})
	feed(a,
		send(proto.KindToken, 3, modes.W, 0, 2),
		// 2→1 and 1's deliver happen off-node; next local event is the
		// token landing back home from node 1.
		deliver(proto.KindToken, 3, modes.W, 1, 0),
	)
	if n := a.Violations(); n != 0 {
		t.Fatalf("partial stream flagged %d violations: %+v", n, a.Snapshot().Violations)
	}
	// The ledger must have caught up: node 0 holds the token again and
	// may send it out without tripping the duplicate/non-holder checks.
	feed(a, send(proto.KindToken, 3, modes.W, 0, 1))
	if n := a.Violations(); n != 0 {
		t.Fatalf("re-send after catch-up flagged %d violations: %+v", n, a.Snapshot().Violations)
	}
}

func TestCopysetReleaseViolation(t *testing.T) {
	a := New(Config{Root: 0})
	feed(a,
		// Node 2 was copy-granted by node 1 — releasing to 1 or root 0 is fine.
		deliver(proto.KindGrant, 9, modes.R, 1, 2),
		send(proto.KindRelease, 9, modes.R, 2, 1),
		send(proto.KindRelease, 9, modes.R, 2, 0),
		// Releasing to node 3, which never granted it, is not.
		send(proto.KindRelease, 9, modes.R, 2, 3),
	)
	rep := a.Snapshot()
	if rep.ByCheck[InvCopysetRelease] != 1 {
		t.Fatalf("copyset_release = %d, want 1; %+v", rep.ByCheck[InvCopysetRelease], rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Detail, "never granted") {
		t.Errorf("detail = %q", rep.Violations[0].Detail)
	}
}

func TestFreezeFIFOViolation(t *testing.T) {
	a := New(Config{Root: 0})
	feed(a,
		// Two sends on link 0→1, delivered out of order.
		send(proto.KindFreeze, 5, modes.W, 0, 1),
		send(proto.KindGrant, 5, modes.R, 0, 1),
		deliver(proto.KindGrant, 5, modes.R, 0, 1),
		deliver(proto.KindFreeze, 5, modes.W, 0, 1),
	)
	rep := a.Snapshot()
	// Each swapped delivery mismatches the queued send signature.
	if rep.ByCheck[InvFreezeFIFO] != 2 {
		t.Fatalf("freeze_fifo = %d, want 2; %+v", rep.ByCheck[InvFreezeFIFO], rep.Violations)
	}

	// Delivery with no observed send (live inbound link): skipped.
	b := New(Config{Root: 0})
	feed(b, deliver(proto.KindFreeze, 5, modes.W, 3, 0))
	if n := b.Snapshot().ByCheck[InvFreezeFIFO]; n != 0 {
		t.Errorf("unobserved link flagged %d", n)
	}
}

// TestFIFOBacklogGoesLossy floods one link with sends and checks the
// auditor degrades to lossy instead of growing without bound or lying.
func TestFIFOBacklogGoesLossy(t *testing.T) {
	a := New(Config{Root: 0, MaxLinkBacklog: 4})
	for i := 0; i < 10; i++ {
		a.Record([]trace.Entry{send(proto.KindRequest, 1, modes.R, 0, 1)})
	}
	// Out-of-order delivery on the lossy link must not flag.
	a.Record([]trace.Entry{deliver(proto.KindToken, 1, modes.W, 0, 1)})
	if n := a.Snapshot().ByCheck[InvFreezeFIFO]; n != 0 {
		t.Fatalf("lossy link flagged %d", n)
	}
}

// TestMetricsExport attaches a registry and checks the violation and
// entry counters, including pre-registered zeros for healthy invariants.
func TestMetricsExport(t *testing.T) {
	reg := metrics.NewRegistry()
	a := New(Config{Registry: reg, Root: 0})
	feed(a,
		granted(1, modes.W, 0),
		granted(1, modes.W, 1),
	)
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `hierlock_audit_violations_total{invariant="mutual_exclusion"} 1`) {
		t.Errorf("missing mutual_exclusion=1:\n%s", out)
	}
	if !strings.Contains(out, `hierlock_audit_violations_total{invariant="token_conservation"} 0`) {
		t.Errorf("healthy invariant not exported at zero:\n%s", out)
	}
	if !strings.Contains(out, "hierlock_audit_entries_total 2") {
		t.Errorf("missing entries counter:\n%s", out)
	}
}

// TestTapIntegration installs the auditor as a recorder tap and checks
// entries flow through even when the ring is paused.
func TestTapIntegration(t *testing.T) {
	rec := trace.New(8)
	a := New(Config{Root: 0})
	rec.SetTap(a.Record)
	rec.SetEnabled(false) // tap fires regardless of ring admission
	rec.Record(granted(1, modes.W, 0))
	rec.Record(granted(1, modes.W, 2))
	if n := a.Violations(); n != 1 {
		t.Fatalf("tap-fed violations = %d, want 1", n)
	}
	rec.SetTap(nil)
	rec.Record(granted(1, modes.W, 3))
	if n := a.Violations(); n != 1 {
		t.Fatalf("after tap removal violations = %d, want 1", n)
	}
}

// TestViolationListBounded checks MaxViolations caps the retained list
// while the counters keep counting.
func TestViolationListBounded(t *testing.T) {
	a := New(Config{Root: 0, MaxViolations: 2})
	for i := 0; i < 5; i++ {
		a.Record([]trace.Entry{send(proto.KindToken, proto.LockID(100), modes.W, 3, 4)})
		a.Record([]trace.Entry{deliver(proto.KindToken, proto.LockID(100), modes.W, 3, 4)})
		// Every send after the first is by the (now correct) holder... use
		// distinct locks to force fresh non-holder sends.
		a.Record([]trace.Entry{send(proto.KindToken, proto.LockID(200+i), modes.W, 9, 4)})
	}
	rep := a.Snapshot()
	if len(rep.Violations) != 2 {
		t.Errorf("retained = %d, want 2", len(rep.Violations))
	}
	if rep.ByCheck[InvTokenConservation] < 5 {
		t.Errorf("counter = %d, want >= 5", rep.ByCheck[InvTokenConservation])
	}
}

// TestNilAuditor checks the nil receiver is inert (servers without an
// auditor attached pass nil around freely).
func TestNilAuditor(t *testing.T) {
	var a *Auditor
	a.Record([]trace.Entry{granted(1, modes.W, 0)})
	if a.Violations() != 0 {
		t.Fatal("nil auditor")
	}
	rep := a.Snapshot()
	if len(rep.ByCheck) != len(Invariants) {
		t.Fatalf("nil snapshot: %+v", rep)
	}
}

// TestConcurrentStripes drives the auditor the way a member's shards do:
// four goroutines, each granting and releasing its own locks, 10 000
// entries apiece including acquires the auditor only counts. One
// incompatible grant is injected mid-stream. The striped ledgers must
// flag it exactly once, call OnViolation once, and count every entry.
func TestConcurrentStripes(t *testing.T) {
	const workers, perWorker = 4, 10000
	var calls atomic.Int32
	reg := metrics.NewRegistry()
	a := New(Config{Registry: reg, Root: 0, OnViolation: func(v Violation) {
		if v.Invariant != InvMutualExclusion || v.Lock != 7 {
			t.Errorf("unexpected violation %+v", v)
		}
		calls.Add(1)
	}})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker/4; i++ {
				lock := proto.LockID(1000*(w+1) + i%37) // private to the worker, every stripe
				a.Record([]trace.Entry{{Op: trace.OpAcquire, Node: 0, Lock: lock, Mode: modes.W}})
				a.Record([]trace.Entry{granted(lock, modes.W, 0)})
				a.Record([]trace.Entry{release(lock, modes.W, 0)})
				a.Record([]trace.Entry{{Op: trace.OpEvict, Lock: lock}})
				if w == 2 && i == perWorker/8 {
					// Node 1 is granted W on lock 7 while node 0 holds it.
					feed(a, granted(7, modes.W, 0), granted(7, modes.W, 1),
						release(7, modes.W, 1), release(7, modes.W, 0))
				}
			}
		}(w)
	}
	wg.Wait()

	rep := a.Snapshot()
	if want := uint64(workers*perWorker + 4); rep.Entries != want {
		t.Fatalf("Entries = %d, want %d", rep.Entries, want)
	}
	if rep.Total != 1 || rep.ByCheck[InvMutualExclusion] != 1 || len(rep.Violations) != 1 {
		t.Fatalf("report = %+v, want exactly one mutual_exclusion violation", rep)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("OnViolation called %d times, want 1", n)
	}
	if got := reg.Counter(metrics.MetricAuditEntries, "", nil).Value(); got != rep.Entries {
		t.Fatalf("%s = %d, report says %d", metrics.MetricAuditEntries, got, rep.Entries)
	}
}

// TestFinishedOperationsAreIntervals: a grant that carries its release
// (trace.Entry.Released) is a hold over [At, Released), and holds are
// compared by their stamps, not by the order they are handed in: members
// that stage their client operations hand in batches, so two grants no
// message separates arrive either way round. Node A's W over [10, 20] and
// node B's W granted at 15 are one violation in either order and none at
// 25; the same with the release handed in as an entry of its own; a
// finished hold beside a compatible open one is clean.
func TestFinishedOperationsAreIntervals(t *testing.T) {
	at := func(e trace.Entry, at, released time.Duration) trace.Entry {
		e.At, e.Released = at, released
		return e
	}
	finishedA := at(granted(1, modes.W, 0), 10, 20)
	splitA := []trace.Entry{at(granted(1, modes.W, 0), 10, 0), at(release(1, modes.W, 0), 20, 0)}
	cases := []struct {
		name   string
		stream []trace.Entry
		want   uint64
	}{
		{"B inside, handed in after", []trace.Entry{finishedA, at(granted(1, modes.W, 1), 15, 0)}, 1},
		{"B inside, handed in before", []trace.Entry{at(granted(1, modes.W, 1), 15, 0), finishedA}, 1},
		{"B later, handed in after", []trace.Entry{finishedA, at(granted(1, modes.W, 1), 25, 0)}, 0},
		{"B later, handed in before", []trace.Entry{at(granted(1, modes.W, 1), 25, 0), finishedA}, 0},
		{"B at the release stamp", []trace.Entry{finishedA, at(granted(1, modes.W, 1), 20, 0)}, 0},
		{"A released separately, B inside, after", append(slices.Clone(splitA), at(granted(1, modes.W, 1), 15, 0)), 1},
		{"A released separately, B later, after", append(slices.Clone(splitA), at(granted(1, modes.W, 1), 25, 0)), 0},
		{"both finished, overlapping", []trace.Entry{finishedA, at(granted(1, modes.W, 1), 12, 14)}, 1},
		{"both finished, overlapping, other order", []trace.Entry{at(granted(1, modes.W, 1), 12, 14), finishedA}, 1},
		{"both finished, apart", []trace.Entry{at(granted(1, modes.W, 1), 21, 30), finishedA}, 0},
		{"finished R beside an open R", []trace.Entry{at(granted(1, modes.R, 1), 5, 0), at(granted(1, modes.R, 0), 10, 20)}, 0},
		{"finished R inside an open W", []trace.Entry{at(granted(1, modes.W, 1), 5, 0), at(granted(1, modes.R, 0), 10, 20)}, 1},
		{"a node's own holds never conflict", []trace.Entry{finishedA, at(granted(1, modes.W, 0), 15, 0)}, 0},
		{"a finished hold closes the node's open one", []trace.Entry{at(granted(1, modes.U, 0), 5, 0), at(granted(1, modes.W, 0), 10, 20), at(granted(1, modes.W, 1), 25, 0)}, 0},
	}
	for _, c := range cases {
		a := New(Config{Root: 0})
		feed(a, c.stream...)
		rep := a.Snapshot()
		if rep.ByCheck[InvMutualExclusion] != c.want || rep.Total != c.want || rep.Entries != uint64(len(c.stream)) {
			t.Errorf("%s: %d violations over %d entries, want %d over %d: %+v",
				c.name, rep.Total, rep.Entries, c.want, len(c.stream), rep.Violations)
		}
	}
}

// TestRecordBatchAsOneByOne: a batch is checked as its entries would be
// one at a time — runs of one stripe, stripe changes mid-batch, counted
// ops among checked ones, messages on a link — with one add to the entry
// count. The stream holds one violation of each of mutual_exclusion,
// token_conservation, copyset_release and freeze_fifo.
func TestRecordBatchAsOneByOne(t *testing.T) {
	stream := []trace.Entry{
		{Op: trace.OpAcquire, Node: 1, Lock: 1, Mode: modes.W},
		granted(1, modes.W, 0),
		granted(17, modes.R, 0), // lock 17 shares lock 1's stripe
		granted(1, modes.W, 1),  // node 0 holds W
		{Op: trace.OpFsyncStall, Node: 0},
		send(proto.KindToken, 2, modes.W, 0, 1),
		send(proto.KindToken, 2, modes.W, 0, 2), // already in flight
		send(proto.KindRelease, 3, modes.R, 4, 5),
		send(proto.KindRequest, 18, modes.R, 0, 3),
		send(proto.KindGrant, 18, modes.R, 0, 3),
		deliver(proto.KindGrant, 18, modes.R, 0, 3), // the request went first
		release(1, modes.W, 0),
		release(1, modes.W, 1),
	}
	reg := metrics.NewRegistry()
	batch, single := New(Config{Registry: reg, Root: 0}), New(Config{Root: 0})
	batch.Record(stream)
	feed(single, stream...)
	got, want := batch.Snapshot(), single.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one batch reports\n%+v\none entry at a time\n%+v", got, want)
	}
	if got.Entries != uint64(len(stream)) || got.Total != 4 {
		t.Fatalf("report %+v, want %d entries and one violation of each invariant", got, len(stream))
	}
	for _, inv := range Invariants {
		if got.ByCheck[inv] != 1 {
			t.Fatalf("%s flagged %d times, want 1: %+v", inv, got.ByCheck[inv], got.Violations)
		}
	}
	if n := reg.Counter(metrics.MetricAuditEntries, "", nil).Value(); n != got.Entries {
		t.Fatalf("%s = %d, report says %d", metrics.MetricAuditEntries, n, got.Entries)
	}
	batch.Record(nil)
	if n := batch.Snapshot().Entries; n != got.Entries {
		t.Fatalf("an empty batch counted: %d entries, want %d", n, got.Entries)
	}
}

// TestConcurrentBatches: batches that hold a stripe mutex across the link
// check of each message among them, admitted from several goroutines over
// stripes and links they share, neither deadlock nor lose an entry.
func TestConcurrentBatches(t *testing.T) {
	const workers, batches = 4, 500
	a := New(Config{Root: proto.NoNode})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			es := make([]trace.Entry, 0, 16)
			for i := 0; i < batches; i++ {
				lock := proto.LockID(64*i + w) // a member stripe of its own, auditor stripes shared
				node, peer := proto.NodeID(w), proto.NodeID(workers+w)
				es = append(es[:0],
					trace.Entry{At: ms(2 * i), Released: ms(2*i + 1), Op: trace.OpGranted, Node: node, Lock: lock, Mode: modes.W},
					send(proto.KindRequest, lock, modes.R, node, peer),
					deliver(proto.KindRequest, lock, modes.R, node, peer))
				a.Record(es)
			}
		}(w)
	}
	wg.Wait()
	rep := a.Snapshot()
	if rep.Entries != workers*batches*3 || rep.Total != 0 {
		t.Fatalf("%d entries and %d violations (%v), want %d and none", rep.Entries, rep.Total, rep.ByCheck, workers*batches*3)
	}
}
