package introspect_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hierlock/internal/audit"
	"hierlock/internal/introspect"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

func TestRecorderRingWraps(t *testing.T) {
	r := introspect.NewRecorder(1, 4)
	for i := 1; i <= 6; i++ {
		r.Record(introspect.Event{Type: introspect.EvGrant, Node: 1, Lock: proto.LockID(i)})
	}
	evs := r.Snapshot(0)
	if len(evs) != 4 {
		t.Fatalf("snapshot = %d events, want ring size 4", len(evs))
	}
	// Oldest two rotated out; recording order preserved, newest last.
	for i, e := range evs {
		if want := uint64(i + 3); e.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if evs[0].Lock != 3 || evs[3].Lock != 6 {
		t.Fatalf("snapshot locks = %d..%d, want 3..6", evs[0].Lock, evs[3].Lock)
	}
	// n limits to the most recent.
	last := r.Snapshot(2)
	if len(last) != 2 || last[1].Seq != 6 {
		t.Fatalf("Snapshot(2) = %+v", last)
	}
	if st := r.Stats(); st.Events != 6 {
		t.Fatalf("Stats.Events = %d, want 6", st.Events)
	}
}

// TestTapFiltersTraceStream: of the trace ring the recorder follows it
// shows grants, token hops and recovery-message transitions, and nothing
// else.
func TestTapFiltersTraceStream(t *testing.T) {
	r := introspect.NewRecorder(2, 16)
	rec := trace.New(16)
	r.Follow(rec, time.Now())
	rec.Record(trace.Entry{Op: trace.OpGranted, Node: 2, Lock: 7, Mode: modes.W,
		Trace: proto.TraceID{Node: 2, Seq: 1}})
	rec.Record(trace.Entry{Op: trace.OpSend, Node: 0, Kind: proto.KindToken,
		Lock: 7, From: 0, To: 2, Epoch: 1})
	rec.Record(trace.Entry{Op: trace.OpDeliver, Node: 2, Kind: proto.KindProbe,
		Lock: 7, From: 1, To: 2, Epoch: 2})
	// Uninteresting ops/kinds are not shown.
	rec.Record(trace.Entry{Op: trace.OpSend, Node: 0, Kind: proto.KindRequest, Lock: 7})
	rec.Record(trace.Entry{Op: trace.OpRelease, Node: 2, Lock: 7, Mode: modes.W})

	evs := r.Snapshot(0)
	if len(evs) != 3 {
		t.Fatalf("ring = %+v, want 3 events (grant, token_hop, recovery)", evs)
	}
	if evs[0].Type != "grant" || evs[0].Trace != "n2.1" || evs[0].Mode != "W" {
		t.Fatalf("grant event = %+v", evs[0])
	}
	if evs[1].Type != "token_hop" || evs[1].Kind != "token" || evs[1].From != 0 || evs[1].To != 2 {
		t.Fatalf("token hop event = %+v", evs[1])
	}
	if evs[2].Type != "recovery" || evs[2].Epoch != 2 {
		t.Fatalf("recovery event = %+v", evs[2])
	}
}

func TestTriggerDumpWritesAndRateLimits(t *testing.T) {
	dir := t.TempDir()
	r := introspect.NewRecorder(3, 8)
	if err := r.EnableAutoDump(dir, time.Hour); err != nil {
		t.Fatal(err)
	}
	r.Record(introspect.Event{Type: introspect.EvRoundDone, Node: 3, Lock: 9, Epoch: 2, Dur: time.Second})

	path, err := r.TriggerDump(introspect.ReasonRecoveryRound)
	if err != nil || path == "" {
		t.Fatalf("TriggerDump = %q, %v", path, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("dump file missing: %v", err)
	}

	// Same reason within the interval: suppressed, not an error.
	again, err := r.TriggerDump(introspect.ReasonRecoveryRound)
	if err != nil || again != "" {
		t.Fatalf("rate-limited TriggerDump = %q, %v, want suppressed", again, err)
	}
	// A different reason has its own limiter.
	other, err := r.TriggerDump(introspect.ReasonManual)
	if err != nil || other == "" {
		t.Fatalf("other-reason TriggerDump = %q, %v", other, err)
	}

	st := r.Stats()
	if st.Dumps[introspect.ReasonRecoveryRound] != 1 || st.Dumps[introspect.ReasonManual] != 1 {
		t.Fatalf("dump counters = %v", st.Dumps)
	}
	// Every reason pre-registered, zeros included.
	for _, reason := range introspect.Reasons {
		if _, ok := st.Dumps[reason]; !ok {
			t.Fatalf("Stats.Dumps missing reason %q", reason)
		}
	}

	files, err := introspect.ListDumps(dir)
	if err != nil || len(files) != 2 {
		t.Fatalf("ListDumps = %+v, %v, want 2 files", files, err)
	}
	d, err := introspect.ReadDump(dir, files[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if d.Node != 3 || d.Reason != introspect.ReasonRecoveryRound {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Events) != 1 || d.Events[0].Type != "round_done" || d.Events[0].DurNS != int64(time.Second) {
		t.Fatalf("dump events = %+v", d.Events)
	}
}

func TestTriggerDumpWithoutDirIsNoop(t *testing.T) {
	r := introspect.NewRecorder(0, 4)
	path, err := r.TriggerDump(introspect.ReasonLockLost)
	if err != nil || path != "" {
		t.Fatalf("TriggerDump with no dir = %q, %v, want suppressed", path, err)
	}
}

func TestReadDumpRejectsPathTraversal(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"../evil.json", "a/b.json", "", ".", "/etc/passwd"} {
		if _, err := introspect.ReadDump(dir, name); err == nil {
			t.Errorf("ReadDump(%q) accepted a non-bare name", name)
		}
	}
}

func TestListDumpsMissingDir(t *testing.T) {
	files, err := introspect.ListDumps("/nonexistent/blackbox")
	if err != nil || files != nil {
		t.Fatalf("ListDumps on missing dir = %+v, %v, want empty, nil", files, err)
	}
}

// TestRecorderZeroAlloc pins the PR's hot-path guarantee: recording an
// event allocates nothing — with a recorder attached or without one
// (every method is nil-safe, costing a single branch when introspection
// is off).
func TestRecorderZeroAlloc(t *testing.T) {
	ev := introspect.Event{Type: introspect.EvGrant, Node: 1, Lock: 7, Mode: modes.W}

	var nilRec *introspect.Recorder
	if n := testing.AllocsPerRun(200, func() {
		nilRec.Record(ev)
		nilRec.Snapshot(0)
	}); n != 0 {
		t.Fatalf("nil recorder allocates %.1f per op, want 0", n)
	}

	live := introspect.NewRecorder(1, 64)
	live.Follow(trace.New(64), time.Now())
	if n := testing.AllocsPerRun(200, func() {
		live.Record(ev)
	}); n != 0 {
		t.Fatalf("live recorder Record allocates %.1f per op, want 0", n)
	}
}

// TestAuditViolationTriggersDump wires the auditor's OnViolation hook to
// the flight recorder exactly as lockd does, forces a mutual-exclusion
// breach, and checks the black box lands a dump preserving the lead-up.
func TestAuditViolationTriggersDump(t *testing.T) {
	dir := t.TempDir()
	bb := introspect.NewRecorder(0, 32)
	if err := bb.EnableAutoDump(dir, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var dumpPath string
	var got audit.Violation
	a := audit.New(audit.Config{Root: 0, OnViolation: func(v audit.Violation) {
		got = v
		dumpPath, _ = bb.TriggerDump(introspect.ReasonAuditViolation)
	}})
	rec := trace.New(4)
	rec.SetTap(a.Record)
	bb.Follow(rec, time.Now())

	// Two conflicting W grants on one lock with no release between them.
	rec.Record(trace.Entry{Op: trace.OpGranted, Node: 0, Lock: 5, Mode: modes.W})
	rec.Record(trace.Entry{Op: trace.OpGranted, Node: 1, Lock: 5, Mode: modes.W})

	if a.Violations() == 0 {
		t.Fatal("auditor missed the double grant")
	}
	if got.Invariant != "mutual_exclusion" {
		t.Fatalf("violation = %+v, want mutual_exclusion", got)
	}
	if dumpPath == "" {
		t.Fatal("no dump written on violation")
	}
	if !strings.Contains(dumpPath, introspect.ReasonAuditViolation) {
		t.Fatalf("dump path %q missing reason", dumpPath)
	}
	d, err := introspect.ReadDump(dir, strings.TrimPrefix(dumpPath, dir+string(os.PathSeparator)))
	if err != nil {
		t.Fatal(err)
	}
	// The ring takes an entry before its taps see it, and the recorder
	// reads its grants from the ring, so the dump the auditor's tap
	// triggers holds the lead-up to the violation and the offending grant
	// itself.
	if d.Reason != introspect.ReasonAuditViolation || len(d.Events) != 2 {
		t.Fatalf("dump = reason %q, %d events; want audit_violation with the lead-up and the offending grant", d.Reason, len(d.Events))
	}
	for i, ev := range d.Events {
		if ev.Type != "grant" || ev.Node != i {
			t.Fatalf("event %d = %+v, want node %d's grant", i, ev, i)
		}
	}
	if st := bb.Stats(); st.Dumps[introspect.ReasonAuditViolation] != 1 {
		t.Fatalf("dump counter = %v", st.Dumps)
	}
}

// TestTapWritesThroughAndReadersPull: the recorder stages nothing — a
// grant is there as soon as the trace ring it follows holds it, stamped
// from the entry's own At, and Record writes through — and Snapshot first
// runs the OnRead hooks of whoever stages in front of that ring, while
// TriggerDump (which fires inside taps) and Stats (which counts only the
// recorder's own events) run none.
func TestTapWritesThroughAndReadersPull(t *testing.T) {
	const grants = 5
	r := introspect.NewRecorder(1, 64)
	if err := r.EnableAutoDump(t.TempDir(), time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(64)
	epoch := time.Now()
	r.Follow(rec, epoch)
	at := time.Since(epoch)
	// A producer holding one grant back, handed in by its hook.
	held := []trace.Entry{{At: at, Op: trace.OpGranted, Node: 1, Lock: 10, Mode: modes.R}}
	pulls := 0
	rec.OnRead(func() {
		pulls++
		rec.Admit(held)
		held = nil
	})
	for i := 1; i <= grants; i++ {
		rec.Record(trace.Entry{At: at + time.Duration(i), Op: trace.OpGranted, Node: 1, Lock: 9, Mode: modes.W})
	}
	r.Record(introspect.Event{Type: introspect.EvTokenHop, Node: 1, Lock: 9, Kind: proto.KindToken, From: 1, To: 2})

	path, err := r.TriggerDump(introspect.ReasonManual)
	if err != nil || path == "" {
		t.Fatalf("TriggerDump = %q, %v", path, err)
	}
	if d, err := introspect.ReadDump(filepath.Dir(path), filepath.Base(path)); err != nil || len(d.Events) != grants+1 || pulls != 0 {
		t.Fatalf("dump has %d events after %d pulls (%v), want the %d in the rings and no pull", len(d.Events), pulls, err, grants+1)
	}
	if got := r.Stats().Events; got != 1 || pulls != 0 {
		t.Fatalf("Stats().Events = %d after %d pulls, want the recorder's own 1 and no pull", got, pulls)
	}
	snap := r.Snapshot(0)
	if len(snap) != grants+2 || pulls != 1 {
		t.Fatalf("snapshot has %d events after %d pulls, want %d after 1", len(snap), pulls, grants+2)
	}
	if last := snap[len(snap)-1]; last.Type != "token_hop" || last.Seq != 1 {
		t.Fatalf("last event is %+v, want the token hop recorded right behind lock 9's %d grants", last, grants)
	}
	var prev time.Time
	for i, ev := range snap {
		when, err := time.Parse(time.RFC3339Nano, ev.At)
		if err != nil {
			t.Fatal(err)
		}
		if when.Before(prev) {
			t.Fatalf("snapshot out of time order at %d: %s after %s", i, ev.At, snap[i-1].At)
		}
		prev = when
	}
	// The grant pulled in last happened first, and is stamped from the
	// entry's At, not from a second clock read.
	if want := epoch.Add(at).UTC().Format(time.RFC3339Nano); snap[0].At != want || snap[0].Lock != 10 {
		t.Fatalf("first event is lock %d stamped %s, want lock 10 at epoch+At = %s", snap[0].Lock, snap[0].At, want)
	}

	for i := 0; i < 100; i++ {
		rec.Record(trace.Entry{At: at, Op: trace.OpGranted, Node: 1, Lock: 9, Mode: modes.W})
	}
	if got := r.Stats().Events; got != 1 {
		t.Fatalf("Stats().Events = %d after 100 more grants, want still 1", got)
	}
	if got := len(r.Snapshot(0)); got != 64+1 {
		t.Fatalf("snapshot has %d events, want the trace ring's capacity 64 of grants and the token hop", got)
	}
}
