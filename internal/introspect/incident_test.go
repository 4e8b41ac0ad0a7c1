package introspect_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hierlock/internal/audit"
	"hierlock/internal/introspect"
	"hierlock/internal/modes"
	"hierlock/internal/profile"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
)

// readTrace reads an incident's trace.json.
func readTrace(t *testing.T, path string) trace.Dump {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(path, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d trace.Dump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTriggerDumpWritesAndRateLimits: an incident is one directory named
// after its time and reason, holding the followed ring (node events
// included, their values round-tripped), the inventory and the health
// sample; a reason within its interval is suppressed, another reason is
// not, and only a stall or a manual incident carries the profiles.
func TestTriggerDumpWritesAndRateLimits(t *testing.T) {
	dir := t.TempDir()
	r := introspect.NewRecorder(3, 8)
	if err := r.EnableAutoDump(dir, time.Hour); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(8)
	r.Follow(introspect.Source{
		Trace:  rec,
		Locks:  func() introspect.NodeInventory { return introspect.NodeInventory{Node: 3} },
		Health: func() watchdog.Sample { return watchdog.Sample{Waiters: 2} },
	})
	rec.Record(trace.Entry{Op: trace.OpRoundDone, Node: 3, Lock: 9, Epoch: 2, Trace: proto.TraceID{Seq: uint64(time.Second)}})

	path, err := r.TriggerDump(introspect.ReasonRecoveryRound)
	if err != nil || filepath.Dir(path) != dir || filepath.Ext(path) != "" {
		t.Fatalf("TriggerDump = %q, %v", path, err)
	}
	// Same reason within the interval: suppressed, not an error.
	if again, err := r.TriggerDump(introspect.ReasonRecoveryRound); err != nil || again != "" {
		t.Fatalf("rate-limited TriggerDump = %q, %v, want suppressed", again, err)
	}
	// A different reason has its own limiter.
	manual, err := r.TriggerDump(introspect.ReasonManual)
	if err != nil || manual == "" {
		t.Fatalf("other-reason TriggerDump = %q, %v", manual, err)
	}
	r.Close()

	st := r.Stats()
	if st.Written[introspect.ReasonRecoveryRound] != 1 || st.Written[introspect.ReasonManual] != 1 || st.LastErr != nil {
		t.Fatalf("stats = %+v", st)
	}
	for _, reason := range introspect.Reasons {
		if _, ok := st.Written[reason]; !ok {
			t.Fatalf("Stats.Written missing reason %q", reason)
		}
	}
	list, err := r.List()
	if err != nil || len(list) != 2 || list[0].Name != filepath.Base(path) || list[1].Name != filepath.Base(manual) {
		t.Fatalf("List = %+v, %v, want the two incidents oldest first", list, err)
	}
	if want := []string{"health.json", "locks.json", "trace.json"}; !slices.Equal(list[0].Files, want) {
		t.Fatalf("a recovery_round incident holds %v, want %v", list[0].Files, want)
	}
	for _, kind := range profile.Kinds {
		if !slices.Contains(list[1].Files, kind+".pprof") {
			t.Fatalf("the manual incident holds %v, no %s profile", list[1].Files, kind)
		}
	}
	d := readTrace(t, path)
	if d.Node != 3 || len(d.Entries) != 1 {
		t.Fatalf("trace.json = %+v", d)
	}
	if e := d.Entries[0]; e.Op != trace.OpRoundDone || e.Lock != 9 || e.Epoch != 2 || time.Duration(e.Trace.Seq) != time.Second {
		t.Fatalf("round_done entry = %+v", e)
	}
	data, err := r.Read(list[0].Name, "health.json")
	var h watchdog.Sample
	if err != nil || json.Unmarshal(data, &h) != nil || h.Waiters != 2 {
		t.Fatalf("health.json = %s, %v", data, err)
	}
}

// TestTriggerDumpWithoutDirIsNoop: no directory, nothing written and
// nothing listed.
func TestTriggerDumpWithoutDirIsNoop(t *testing.T) {
	r := introspect.NewRecorder(0, 4)
	path, err := r.TriggerDump(introspect.ReasonLockLost)
	if err != nil || path != "" {
		t.Fatalf("TriggerDump with no dir = %q, %v, want suppressed", path, err)
	}
	if list, err := r.List(); err != nil || list != nil {
		t.Fatalf("List with no dir = %+v, %v, want empty", list, err)
	}
}

func TestReadRejectsPathTraversal(t *testing.T) {
	r := introspect.NewRecorder(0, 0)
	if err := r.EnableAutoDump(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range [][2]string{{"..", "x"}, {"a", "../b"}, {"a/b", "c"}, {"", "c"}, {"a", ""}, {".", "c"}, {".1-manual", "trace.json"}, {"a", "/etc/passwd"}} {
		if _, err := r.Read(name[0], name[1]); err == nil {
			t.Errorf("Read(%q, %q) accepted a non-bare name", name[0], name[1])
		}
	}
}

// TestRecorderZeroAlloc: the recorder keeps no ring — NewRecorder
// allocates as much for a size of 4096 as for 1 — and a nil recorder,
// which a member without one triggers on every exceptional event and
// closes with itself, allocates nothing.
func TestRecorderZeroAlloc(t *testing.T) {
	allocated := func(size int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			sink = introspect.NewRecorder(0, size)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if one, ring := allocated(1), allocated(4096); ring > one+one/10 {
		t.Fatalf("100 NewRecorder(0, 4096) allocate %d B, 100 NewRecorder(0, 1) %d B: a ring", ring, one)
	}
	var nilRec *introspect.Recorder
	if n := testing.AllocsPerRun(200, func() {
		_, _ = nilRec.TriggerDump(introspect.ReasonLockLost)
		nilRec.Close()
	}); n != 0 {
		t.Fatalf("nil recorder allocates %.1f per call, want 0", n)
	}
}

var sink *introspect.Recorder

// TestAuditViolationTriggersDump wires the auditor's OnViolation hook to
// the recorder exactly as lockd does, forces a mutual-exclusion breach,
// and checks the incident keeps the lead-up.
func TestAuditViolationTriggersDump(t *testing.T) {
	dir := t.TempDir()
	bb := introspect.NewRecorder(0, 32)
	if err := bb.EnableAutoDump(dir, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var path string
	var got audit.Violation
	a := audit.New(audit.Config{Root: 0, OnViolation: func(v audit.Violation) {
		got = v
		path, _ = bb.TriggerDump(introspect.ReasonAuditViolation)
	}})
	rec := trace.New(4)
	rec.SetTap(a.Record)
	bb.Follow(introspect.Source{Trace: rec})

	// Two conflicting W grants on one lock with no release between them.
	rec.Record(trace.Entry{Op: trace.OpGranted, Node: 0, Lock: 5, Mode: modes.W})
	rec.Record(trace.Entry{Op: trace.OpGranted, Node: 1, Lock: 5, Mode: modes.W})
	bb.Close()

	if a.Violations() == 0 || got.Invariant != "mutual_exclusion" {
		t.Fatalf("violation = %+v, want mutual_exclusion", got)
	}
	if !strings.HasSuffix(path, "-"+introspect.ReasonAuditViolation) {
		t.Fatalf("incident path %q, want one named after audit_violation", path)
	}
	// The ring takes an entry before its taps see it, so the incident the
	// auditor's tap triggers holds the lead-up to the violation and the
	// offending grant itself.
	d := readTrace(t, path)
	if len(d.Entries) != 2 {
		t.Fatalf("trace.json holds %d entries, want the lead-up and the offending grant", len(d.Entries))
	}
	for i, e := range d.Entries {
		if e.Op != trace.OpGranted || e.Node != proto.NodeID(i) {
			t.Fatalf("entry %d = %+v, want node %d's grant", i, e, i)
		}
	}
	if st := bb.Stats(); st.Written[introspect.ReasonAuditViolation] != 1 {
		t.Fatalf("incident counter = %v", st.Written)
	}
}

// TestTriggerDumpPullsNothing: an incident copies what the followed ring
// holds, running none of the OnRead hooks of whoever stages in front of
// it (it fires inside taps, under the mutexes a hook takes); a producer's
// held-back entry is not in it.
func TestTriggerDumpPullsNothing(t *testing.T) {
	const grants = 5
	r := introspect.NewRecorder(1, 0)
	if err := r.EnableAutoDump(t.TempDir(), time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(64)
	r.Follow(introspect.Source{Trace: rec})
	pulls := 0
	rec.OnRead(func() {
		pulls++
		rec.Admit([]trace.Entry{{Op: trace.OpGranted, Node: 1, Lock: 10, Mode: modes.R}})
	})
	for i := 1; i <= grants; i++ {
		rec.Record(trace.Entry{At: time.Duration(i), Op: trace.OpGranted, Node: 1, Lock: 9, Mode: modes.W})
	}
	path, err := r.TriggerDump(introspect.ReasonLockLost)
	if err != nil || path == "" {
		t.Fatalf("TriggerDump = %q, %v", path, err)
	}
	r.Close()
	if d := readTrace(t, path); len(d.Entries) != grants || pulls != 0 {
		t.Fatalf("incident holds %d entries after %d pulls, want the %d in the ring and no pull", len(d.Entries), pulls, grants)
	}
}

// TestCloseEndsIncidents: Close returns once the incident in flight is
// complete, cutting its CPU profile short, and no incident starts after.
func TestCloseEndsIncidents(t *testing.T) {
	r := introspect.NewRecorder(0, 0)
	if err := r.EnableAutoDump(t.TempDir(), time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	path, err := r.TriggerDump(introspect.ReasonStall)
	if err != nil || path == "" {
		t.Fatalf("TriggerDump = %q, %v", path, err)
	}
	r.Close()
	if took := time.Since(start); took >= profile.CPUDuration {
		t.Fatalf("Close took %v: the CPU profile ran its full %v", took, profile.CPUDuration)
	}
	if _, err := os.Stat(filepath.Join(path, "cpu.pprof")); err != nil {
		t.Fatalf("the incident is not complete when Close returns: %v", err)
	}
	if after, err := r.TriggerDump(introspect.ReasonManual); err != nil || after != "" {
		t.Fatalf("TriggerDump after Close = %q, %v, want suppressed", after, err)
	}
}
