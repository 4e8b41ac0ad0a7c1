package trace_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

func TestRecorderBasics(t *testing.T) {
	r := trace.New(8)
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("fresh recorder must be empty")
	}
	r.Record(trace.Entry{Op: trace.OpAcquire, Node: 1, Lock: 2, Mode: modes.R})
	r.Record(trace.Entry{Op: trace.OpGranted, Node: 1, Lock: 2, Mode: modes.R})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	es := r.Entries()
	if es[0].Seq != 1 || es[1].Seq != 2 {
		t.Fatalf("sequence numbering: %+v", es)
	}
	if es[0].Op != trace.OpAcquire || es[1].Op != trace.OpGranted {
		t.Fatalf("order: %+v", es)
	}
	if got := r.Counts(); got[trace.OpAcquire] != 1 || got[trace.OpGranted] != 1 {
		t.Fatalf("counts: %v", got)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := trace.New(4)
	for i := 0; i < 10; i++ {
		r.Record(trace.Entry{Op: trace.OpSend, Node: proto.NodeID(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	es := r.Entries()
	// Oldest retained is entry #7 (node 6).
	if es[0].Node != 6 || es[3].Node != 9 {
		t.Fatalf("ring order: %+v", es)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *trace.Recorder
	r.Record(trace.Entry{}) // must not panic
	if r.Len() != 0 || r.Entries() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder must behave as empty")
	}
}

func TestFilterAndString(t *testing.T) {
	r := trace.New(16)
	r.Record(trace.Entry{At: time.Second, Op: trace.OpSend, Kind: proto.KindRequest, From: 0, To: 1, Lock: 5, Mode: modes.W})
	r.Record(trace.Entry{At: 2 * time.Second, Op: trace.OpGranted, Node: 1, Lock: 5, Mode: modes.W})
	sends := r.Filter(func(e trace.Entry) bool { return e.Op == trace.OpSend })
	if len(sends) != 1 || sends[0].Kind != proto.KindRequest {
		t.Fatalf("filter: %+v", sends)
	}
	s := r.String()
	if !strings.Contains(s, "send") || !strings.Contains(s, "granted") || !strings.Contains(s, "request") {
		t.Fatalf("render:\n%s", s)
	}
	for _, op := range []trace.Op{trace.OpSend, trace.OpDeliver, trace.OpAcquire, trace.OpGranted, trace.OpRelease, trace.Op(99)} {
		if op.String() == "" {
			t.Fatal("op must render")
		}
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   trace.Op
		want string
	}{
		{trace.Op(0), "invalid(0)"}, // the zero value must be distinguishable
		{trace.OpSend, "send"},
		{trace.OpDeliver, "deliver"},
		{trace.OpAcquire, "acquire"},
		{trace.OpGranted, "granted"},
		{trace.OpRelease, "release"},
		{trace.Op(6), "invalid(6)"}, // retired ops print as invalid
		{trace.OpRoundStart, "round_start"},
		{trace.OpRoundDone, "round_done"},
		{trace.OpFsyncStall, "fsync_stall"},
		{trace.OpEvict, "evict_sweep"},
		{trace.OpLockLost, "lock_lost"},
		{trace.Op(99), "invalid(99)"},
		{trace.Op(255), "invalid(255)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(c.op), got, c.want)
		}
	}
}

// TestSetEnabled: a pause freezes what the ring's readers see, not the
// ring: Live and the taps keep up, and a resumption shows everything.
func TestSetEnabled(t *testing.T) {
	r := trace.New(2)
	tapped := 0
	r.SetTap(func(es []trace.Entry) { tapped += len(es) })
	if !r.Enabled() {
		t.Fatal("fresh recorder must be enabled")
	}
	r.Record(trace.Entry{Op: trace.OpSend, Node: 1})
	r.SetEnabled(false)
	if r.Enabled() {
		t.Fatal("disable must be observable")
	}
	r.Record(trace.Entry{Op: trace.OpSend, Node: 2})
	r.Record(trace.Entry{Op: trace.OpSend, Node: 3})
	if es := r.Entries(); r.Len() != 1 || r.Dropped() != 0 || len(es) != 1 || es[0].Node != 1 {
		t.Fatalf("paused readers see %v (Len %d, Dropped %d), want the one entry from before the pause", es, r.Len(), r.Dropped())
	}
	if live := r.Live(); len(live) != 2 || live[1].Node != 3 || tapped != 3 {
		t.Fatalf("paused: Live reads %v and the tap saw %d entries, want the ring's last two and 3", live, tapped)
	}
	r.SetEnabled(true)
	if es := r.Entries(); r.Len() != 2 || r.Dropped() != 1 || es[0].Node != 2 || es[1].Node != 3 {
		t.Fatalf("resumed readers see %v (Len %d, Dropped %d), want the ring as recorded while paused", es, r.Len(), r.Dropped())
	}

	var nilRec *trace.Recorder
	nilRec.SetEnabled(true) // must not panic
	if nilRec.Enabled() {
		t.Fatal("nil recorder is never enabled")
	}
}

// TestDisabledRecordAllocatesNothing is the benchmark guard for the
// disabled fast path: recording through a nil recorder and a paused
// recorder (which records as a live one does) must add zero allocations
// per protocol step.
func TestDisabledRecordAllocatesNothing(t *testing.T) {
	var nilRec *trace.Recorder
	paused := trace.New(8)
	paused.SetEnabled(false)
	e := trace.Entry{Op: trace.OpSend, Kind: proto.KindToken, From: 1, To: 2, Lock: 3}
	if n := testing.AllocsPerRun(100, func() {
		nilRec.Record(e)
		paused.Record(e)
	}); n != 0 {
		t.Fatalf("disabled recorders allocated %.1f times per record", n)
	}
}

func TestCheckFIFO(t *testing.T) {
	r := trace.New(64)
	// Two sends, delivered in order: OK.
	r.Record(trace.Entry{Op: trace.OpSend, From: 0, To: 1, Kind: proto.KindRequest, Lock: 1, Mode: modes.R})
	r.Record(trace.Entry{Op: trace.OpSend, From: 0, To: 1, Kind: proto.KindGrant, Lock: 1, Mode: modes.R})
	r.Record(trace.Entry{Op: trace.OpDeliver, From: 0, To: 1, Kind: proto.KindRequest, Lock: 1, Mode: modes.R})
	r.Record(trace.Entry{Op: trace.OpDeliver, From: 0, To: 1, Kind: proto.KindGrant, Lock: 1, Mode: modes.R})
	if v := r.CheckFIFO(); v != "" {
		t.Fatalf("unexpected violation: %s", v)
	}

	// Reordered deliveries: violation.
	r2 := trace.New(64)
	r2.Record(trace.Entry{Op: trace.OpSend, From: 0, To: 1, Kind: proto.KindRequest, Lock: 1})
	r2.Record(trace.Entry{Op: trace.OpSend, From: 0, To: 1, Kind: proto.KindGrant, Lock: 1})
	r2.Record(trace.Entry{Op: trace.OpDeliver, From: 0, To: 1, Kind: proto.KindGrant, Lock: 1})
	if v := r2.CheckFIFO(); v == "" {
		t.Fatal("reordering not detected")
	}

	// More deliveries than sends: violation.
	r3 := trace.New(64)
	r3.Record(trace.Entry{Op: trace.OpDeliver, From: 2, To: 3, Kind: proto.KindToken, Lock: 9})
	if v := r3.CheckFIFO(); v == "" {
		t.Fatal("orphan delivery not detected")
	}
}

// TestStagedAdmission covers a staging producer: entries it holds back
// reach the ring and the taps together, when it admits them — which its
// OnRead hook does whenever the ring is read, and before a pause takes
// effect.
func TestStagedAdmission(t *testing.T) {
	r := trace.New(8)
	var tapped []trace.Entry
	r.SetTap(func(es []trace.Entry) { tapped = append(tapped, es...) })

	var staged []trace.Entry
	flushes := 0
	r.OnRead(func() {
		flushes++
		r.Admit(staged)
		staged = staged[:0]
	})
	stage := func(e trace.Entry) { staged = append(staged, e) }

	// A later event written through first, two earlier ones staged.
	r.Record(trace.Entry{At: 30, Op: trace.OpSend})
	stage(trace.Entry{At: 10, Op: trace.OpAcquire})
	stage(trace.Entry{At: 20, Op: trace.OpGranted})
	if len(tapped) != 1 {
		t.Fatalf("taps saw %d entries, want 1: staged entries reach them at admission", len(tapped))
	}
	if n := r.Len(); n != 3 || flushes != 1 || len(tapped) != 3 {
		t.Fatalf("Len() = %d after %d flushes, taps saw %d; want 3, 1, 3 (a read admits what is staged)", n, flushes, len(tapped))
	}
	if tapped[1].Op != trace.OpAcquire || tapped[2].Op != trace.OpGranted {
		t.Fatalf("taps saw the batch out of staging order: %v", tapped)
	}
	es := r.Entries()
	for i, want := range []trace.Op{trace.OpAcquire, trace.OpGranted, trace.OpSend} {
		if es[i].Op != want {
			t.Fatalf("entry %d is %v, want %v: with a producer registered the ring reads in At order\n%v", i, es[i].Op, want, es)
		}
	}
	if es[2].Seq != 1 || es[0].Seq != 2 || es[1].Seq != 3 {
		t.Fatalf("Seq is admission order: got %d %d %d", es[0].Seq, es[1].Seq, es[2].Seq)
	}

	// A pause freezes a view that holds what was staged before it and
	// nothing after; the ring and the taps go on taking all of it.
	stage(trace.Entry{At: 40, Op: trace.OpRelease})
	r.SetEnabled(false)
	if len(tapped) != 4 {
		t.Fatalf("taps saw %d entries, want 4: the pause admits what was staged", len(tapped))
	}
	stage(trace.Entry{At: 50, Op: trace.OpAcquire})
	if n := r.Len(); n != 4 || len(r.Live()) != 5 || len(tapped) != 5 {
		t.Fatalf("paused: Len() = %d, Live holds %d, taps saw %d; want 4, 5, 5 (a paused read pulls, into the ring only)", n, len(r.Live()), len(tapped))
	}
	r.SetEnabled(true)
	stage(trace.Entry{At: 60, Op: trace.OpGranted})
	if n := r.Len(); n != 6 {
		t.Fatalf("Len() = %d, want 6: the entries staged before the pause, during it and after it", n)
	}
	if len(tapped) != 6 {
		t.Fatalf("taps saw %d entries, want 6: a pause does not blind them", len(tapped))
	}

	// Admission evicts like Record: a full ring keeps the newest.
	for i := 0; i < 10; i++ {
		stage(trace.Entry{At: time.Duration(100 + i), Op: trace.OpSend, Node: proto.NodeID(i)})
	}
	es = r.Entries()
	if len(es) != 8 || es[0].Node != 2 || es[7].Node != 9 {
		t.Fatalf("after 16 admissions into 8 slots: %v", es)
	}
	if d := r.Dropped(); d != 8 {
		t.Fatalf("Dropped() = %d, want 8", d)
	}
}

// TestEntriesUnsortedWithoutProducer: a write-through recorder (the
// simulator's, whose At is virtual and whose goldens are byte-exact)
// keeps returning recording order whatever the At values say.
func TestEntriesUnsortedWithoutProducer(t *testing.T) {
	r := trace.New(4)
	r.Record(trace.Entry{At: 2, Node: 1})
	r.Record(trace.Entry{At: 1, Node: 2})
	if es := r.Entries(); es[0].Node != 1 || es[1].Node != 2 {
		t.Fatalf("recording order not kept: %v", es)
	}
}

// TestTapsRunInInstallOrder: SetTap replaces every tap, AddTap installs
// one behind those already there, and each entry visits them in that
// order.
func TestTapsRunInInstallOrder(t *testing.T) {
	r := trace.New(4)
	var calls []string
	tap := func(name string) func([]trace.Entry) {
		return func([]trace.Entry) { calls = append(calls, name) }
	}
	r.AddTap(tap("dropped by SetTap"))
	r.SetTap(tap("a"))
	r.AddTap(tap("b"))
	r.AddTap(nil)
	r.AddTap(tap("c"))
	r.Record(trace.Entry{Op: trace.OpSend})
	r.Admit([]trace.Entry{{Op: trace.OpSend}})
	if got := strings.Join(calls, ""); got != "abcabc" {
		t.Fatalf("taps ran as %q, want abcabc", got)
	}
	r.SetTap(nil)
	r.Record(trace.Entry{Op: trace.OpSend})
	r.Admit([]trace.Entry{{Op: trace.OpSend}})
	if len(calls) != 6 {
		t.Fatalf("a tap ran after SetTap(nil): %v", calls)
	}
}

// TestGrantCarryingItsAcquire: an OpGranted entry with Issued set is one
// entry to the taps and two to the ring — the OpAcquire it stands for at
// the Issued stamp, then the grant — whether recorded or admitted, and
// capacity, Len, Dropped and Seq count both.
func TestGrantCarryingItsAcquire(t *testing.T) {
	r := trace.New(4)
	tapped := 0
	r.SetTap(func(es []trace.Entry) { tapped += len(es) })
	grant := trace.Entry{At: 20, Issued: 10, Op: trace.OpGranted, Node: 3, Lock: 7,
		Mode: modes.W, Trace: proto.TraceID{Node: 3, Seq: 9}}
	r.Record(grant)
	r.Record(trace.Entry{At: 30, Op: trace.OpRelease, Node: 3, Lock: 7})
	if tapped != 2 || r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("taps saw %d entries, ring holds %d and dropped %d; want 2, 3, 0", tapped, r.Len(), r.Dropped())
	}
	acquire := grant
	acquire.At, acquire.Op, acquire.Issued, acquire.Seq = 10, trace.OpAcquire, 0, 1
	grant.Issued, grant.Seq = 0, 2
	if es := r.Entries(); es[0] != acquire || es[1] != grant || es[2].Seq != 3 {
		t.Fatalf("ring reads\n%v\nwant the acquire, then the grant without Issued, then the release", es)
	}
	paths := trace.AssembleCausal([]trace.Dump{r.DumpLast(0)})
	if len(paths) != 1 || !paths[0].Complete || paths[0].End-paths[0].Start != 10 || len(paths[0].Steps) != 2 {
		t.Fatalf("causal paths: %+v", paths)
	}

	// Admitted in a batch into a ring with one slot to spare: both halves
	// count against the capacity, so the oldest entry goes.
	r.Admit([]trace.Entry{{At: 50, Issued: 40, Op: trace.OpGranted, Lock: 8}})
	es := r.Entries()
	if len(es) != 4 || r.Len() != 4 || r.Dropped() != 1 {
		t.Fatalf("full ring: %d entries, Len %d, Dropped %d; want 4, 4, 1", len(es), r.Len(), r.Dropped())
	}
	for i, want := range []trace.Op{trace.OpGranted, trace.OpRelease, trace.OpAcquire, trace.OpGranted} {
		if es[i].Op != want || es[i].Seq != uint64(i+2) || es[i].Issued != 0 {
			t.Fatalf("entry %d: %v, want %v with Seq %d", i, es[i], want, i+2)
		}
	}
}

// TestGrantCarryingItsRelease: an OpGranted entry with Issued and Released
// set is a whole operation in one entry to the taps and three to the ring
// — acquire, grant, release, contiguous, each at its own stamp, the
// release under the trace ID its sequence names — and no entry read back
// carries any of the three words.
func TestGrantCarryingItsRelease(t *testing.T) {
	r := trace.New(4)
	var tapped []trace.Entry
	r.SetTap(func(es []trace.Entry) { tapped = append(tapped, es...) })
	op := trace.Entry{At: 20, Issued: 10, Released: 30, ReleaseSeq: 11, Op: trace.OpGranted,
		Node: 3, Lock: 7, Mode: modes.W, Trace: proto.TraceID{Node: 3, Seq: 9}}
	r.Admit([]trace.Entry{op, {At: 40, Released: 50, ReleaseSeq: 13, Op: trace.OpGranted, Node: 3, Lock: 7, Mode: modes.R}})
	if len(tapped) != 2 || tapped[0] != op {
		t.Fatalf("taps saw %v, want the two entries as admitted", tapped)
	}
	if r.Len() != 4 || r.Dropped() != 1 {
		t.Fatalf("ring holds %d and dropped %d, want 4 and 1: five entries into four slots", r.Len(), r.Dropped())
	}
	want := []trace.Entry{
		{Seq: 2, At: 20, Op: trace.OpGranted, Node: 3, Lock: 7, Mode: modes.W, Trace: op.Trace},
		{Seq: 3, At: 30, Op: trace.OpRelease, Node: 3, Lock: 7, Trace: proto.TraceID{Node: 3, Seq: 11}},
		{Seq: 4, At: 40, Op: trace.OpGranted, Node: 3, Lock: 7, Mode: modes.R},
		{Seq: 5, At: 50, Op: trace.OpRelease, Node: 3, Lock: 7, Trace: proto.TraceID{Node: 3, Seq: 13}},
	}
	if es := r.Entries(); !slices.Equal(es, want) {
		t.Fatalf("ring reads\n%v\nwant\n%v", es, want)
	}

	// Paused, the taps still see the operation and the readers' view takes
	// none of it.
	r.SetEnabled(false)
	r.Record(op)
	if len(tapped) != 3 || r.Dropped() != 1 {
		t.Fatalf("paused: taps saw %d entries, Dropped() = %d; want 3 and 1", len(tapped), r.Dropped())
	}
}

// TestSlotRoundTrip: what the ring packs of an entry is everything its
// readers get back, for every op, at the fields' extremes: the node
// events' counts and durations (Epoch, Trace.Seq), NoNode in each node
// field, a zero Kind and a message's. A pause's frozen copy reads the same.
func TestSlotRoundTrip(t *testing.T) {
	var in []trace.Entry
	for op := trace.OpSend; op <= trace.OpLockLost; op++ {
		in = append(in,
			trace.Entry{At: time.Duration(op) * time.Hour, Op: op, Node: proto.NoNode, Lock: math.MaxUint64,
				Mode: modes.W, Kind: proto.KindToken, From: proto.NoNode, To: proto.NoNode,
				Epoch: math.MaxUint32, Trace: proto.TraceID{Node: proto.NoNode, Seq: math.MaxUint64}},
			trace.Entry{At: math.MaxInt64, Op: op, Node: math.MaxInt32, Lock: 1, Mode: modes.IR,
				From: math.MinInt32, To: 7, Epoch: 12, Trace: proto.TraceID{Seq: uint64(40 * time.Millisecond)}},
		)
	}
	r := trace.New(len(in))
	for _, e := range in {
		r.Record(e)
	}
	for i := range in {
		in[i].Seq = uint64(i + 1)
	}
	if got := r.Entries(); !slices.Equal(got, in) {
		t.Fatalf("ring reads\n%v\nwant\n%v", got, in)
	}
	r.SetEnabled(false)
	if got := r.Entries(); !slices.Equal(got, in) {
		t.Fatalf("paused, the ring reads\n%v\nwant\n%v", got, in)
	}
}

// TestSeqAcrossWrapAndPause: Seq, which the ring derives from each slot's
// position, and Dropped stay exact across a wrap, a pause taken mid-wrap
// (the frozen copy numbers its slots as the ring did) and a resume.
func TestSeqAcrossWrapAndPause(t *testing.T) {
	r := trace.New(4)
	recorded := 0
	record := func(n int) {
		for ; n > 0; n-- {
			recorded++
			r.Record(trace.Entry{Op: trace.OpSend, Node: proto.NodeID(recorded)})
		}
	}
	// check: es holds n entries numbered first.., each recorded as its Seq.
	check := func(what string, es []trace.Entry, first uint64, n int) {
		t.Helper()
		if len(es) != n {
			t.Fatalf("%s: %d entries, want %d: %v", what, len(es), n, es)
		}
		for i, e := range es {
			if e.Seq != first+uint64(i) || uint64(e.Node) != e.Seq {
				t.Fatalf("%s: entry %d is %v, want Seq %d recorded as such", what, i, e, first+uint64(i))
			}
		}
	}

	record(3)
	check("before the wrap", r.Entries(), 1, 3)
	record(3) // wraps: the next slot is the third of four
	check("wrapped", r.Entries(), 3, 4)
	if d := r.Dropped(); d != 2 {
		t.Fatalf("wrapped: Dropped() = %d, want 2", d)
	}

	r.SetEnabled(false)
	record(3)
	check("paused", r.Entries(), 3, 4)
	check("paused, live", r.Live(), 6, 4)
	if n, d := r.Len(), r.Dropped(); n != 4 || d != 2 {
		t.Fatalf("paused: Len() = %d, Dropped() = %d; want 4 and 2", n, d)
	}

	r.SetEnabled(true)
	check("resumed", r.Entries(), 6, 4)
	if d := r.Dropped(); d != 5 {
		t.Fatalf("resumed: Dropped() = %d, want 5", d)
	}
	record(1)
	check("after the resume", r.Entries(), 7, 4)
	if d := r.Dropped(); d != 6 {
		t.Fatalf("after the resume: Dropped() = %d, want 6", d)
	}

	// A pause of a ring that never wrapped freezes its entries as numbered.
	r2 := trace.New(4)
	r2.Record(trace.Entry{Op: trace.OpSend, Node: 1})
	r2.SetEnabled(false)
	r2.Record(trace.Entry{Op: trace.OpSend, Node: 2})
	if es := r2.Entries(); len(es) != 1 || es[0].Seq != 1 || r2.Dropped() != 0 {
		t.Fatalf("paused before any wrap: %v, Dropped() = %d; want the one entry, Seq 1, and 0", es, r2.Dropped())
	}
}
