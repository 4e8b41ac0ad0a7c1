package journal

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// TestSyncErrorIsSticky: a failed sync fails the journal under every
// policy. The first sync error — inline under FsyncAlways, the flusher's
// under FsyncBatched, an explicit Sync's under FsyncNever — is returned
// by every later Append, Sync and Snapshot, so the member appending
// fails as it does on any append error, and by Close.
func TestSyncErrorIsSticky(t *testing.T) {
	injected := errors.New("injected sync failure")
	for _, p := range []Policy{FsyncAlways, FsyncBatched, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			j := mustOpen(t, t.TempDir(), Options{Fsync: p, BatchInterval: time.Millisecond})
			j.syncMu.Lock()
			j.syncErr = injected
			j.syncMu.Unlock()
			var ts uint64
			appendOne := func() error {
				ts++
				return j.Append(Record{Kind: RecToken, Lock: 1, Epoch: 1, Token: ts%2 == 0, TS: ts})
			}
			var first error
			switch p {
			case FsyncAlways:
				first = appendOne()
			case FsyncBatched:
				// The flusher's failure is the journal's once it is recorded:
				// append until an append returns it.
				for deadline := time.Now().Add(5 * time.Second); first == nil; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("appends kept succeeding after the flusher's sync failed")
					}
					first = appendOne()
				}
			case FsyncNever:
				if err := appendOne(); err != nil {
					t.Fatal(err)
				}
				first = j.Sync()
			}
			if !errors.Is(first, injected) {
				t.Fatalf("first failure %v, want the injected sync error", first)
			}
			for _, c := range []struct {
				name string
				call func() error
			}{{"Append", appendOne}, {"Sync", j.Sync}, {"Snapshot", j.Snapshot}, {"Append", appendOne}} {
				if err := c.call(); !errors.Is(err, injected) {
					t.Fatalf("%s after the failed sync returned %v, want the sync's error", c.name, err)
				}
			}
			if err := j.Close(); !errors.Is(err, injected) {
				t.Fatalf("Close after the failed sync returned %v, want the sync's error", err)
			}
		})
	}
}

// killChildDir names the journal directory of the child process
// TestKilledProcessLosesNoRecord starts.
const killChildDir = "JOURNAL_TEST_KILL_CHILD_DIR"

// TestKilledProcessLosesNoRecord: a record is in the page cache when
// Append returns, so a process killed right after — no Sync, no Close,
// and a batched flusher that has not synced — loses none. The test binary
// runs itself as the child: it appends killedRecords records, enough to
// move the mapped window several times, and kills itself.
func TestKilledProcessLosesNoRecord(t *testing.T) {
	const killedRecords = 2000
	rec := func(i int) Record {
		return Record{Kind: RecToken, Lock: proto.LockID(i), Epoch: uint32(i), Mode: modes.W, Token: true, Root: 1, TS: uint64(i)}
	}
	if dir := os.Getenv(killChildDir); dir != "" {
		j, err := Open(dir, Options{Fsync: FsyncBatched, BatchInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < killedRecords; i++ {
			if err := j.Append(rec(i)); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Println("appended; killing")
		p, err := os.FindProcess(os.Getpid())
		if err == nil {
			err = p.Kill()
		}
		t.Fatalf("still alive after killing itself: %v", err)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKilledProcessLosesNoRecord$", "-test.count=1")
	cmd.Env = append(os.Environ(), killChildDir+"="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "appended; killing") || strings.Contains(string(out), "FAIL") {
		t.Fatalf("the child was not killed after its appends (err %v):\n%s", err, out)
	}
	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != killedRecords {
		t.Fatalf("replayed %d of the %d records the killed process appended", len(state), killedRecords)
	}
	for i := 0; i < killedRecords; i++ {
		if r := state[proto.LockID(i)]; r != rec(i) {
			t.Fatalf("lock %d replays as %+v, want %+v", i, r, rec(i))
		}
	}
}

// TestFaultOnMappingIsAnError: the WAL cut short from outside, under the
// mapping, makes the store of the first record past the new end fault.
// That append returns an error, the process lives on, every later append
// fails too, and Close returns.
func TestFaultOnMappingIsAnError(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("Windows refuses to truncate a mapped file")
	}
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncNever})
	page := os.Getpagesize()
	if err := os.Truncate(filepath.Join(dir, walName), int64(page)); err != nil {
		t.Fatal(err)
	}
	var err error
	n := 0
	for ; n*frameSize < 2*page; n++ {
		if err = j.Append(Record{Kind: RecToken, Lock: proto.LockID(n), Epoch: 1}); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("appends past the end of the truncated WAL succeeded")
	}
	if want := page / frameSize; n != want {
		t.Fatalf("append %d failed (%v), want the first to cross byte %d, append %d", n, err, page, want)
	}
	if err2 := j.Append(Record{Kind: RecToken, Lock: 1, Epoch: 2}); !errors.Is(err2, err) {
		t.Fatalf("the append after the fault returned %v, want the fault's error %v", err2, err)
	}
	if cerr := j.Close(); !errors.Is(cerr, err) {
		t.Fatalf("Close returned %v, want the fault's error %v", cerr, err)
	}
}

// TestWALGrowsWithSnapshotsOff: with snapshots off the WAL is zero-filled
// growStep bytes at a time as its records reach the end, across reopens,
// and every record replays.
func TestWALGrowsWithSnapshotsOff(t *testing.T) {
	dir := t.TempDir()
	const perOpen = 2*growStep/frameSize + 5
	var want []Record
	for open := 0; open < 2; open++ {
		j := mustOpen(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: -1})
		for i := 0; i < perOpen; i++ {
			r := Record{Kind: RecToken, Lock: proto.LockID(len(want)), Epoch: uint32(open), TS: uint64(i)}
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if recs := walOnDisk(t, dir); !slices.Equal(recs, want) {
			t.Fatalf("after open %d the WAL holds %d records, want the %d appended", open, len(recs), len(want))
		}
	}
	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != len(want) {
		t.Fatalf("replayed %d of %d records", len(state), len(want))
	}
}

// BenchmarkAppend is one record appended under the default options: the
// batched policy and the default snapshot cadence, whose snapshots (one
// every DefaultSnapshotEvery records) are in the figure.
func BenchmarkAppend(b *testing.B) {
	j, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(Record{Kind: RecToken, Lock: proto.LockID(i % 64), Token: i%2 == 0, TS: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
