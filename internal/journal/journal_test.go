package journal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// walOnDisk reads dir's WAL file and returns its records: the frames
// before the first zero frame, each of which must be a whole, CRC-valid
// record. Every byte after them must be zero.
func walOnDisk(t *testing.T, dir string) []Record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	off := 0
	for ; off+frameHeader <= len(data) && binary.LittleEndian.Uint32(data[off:]) != 0; off += frameSize {
		if off+frameSize > len(data) || binary.LittleEndian.Uint32(data[off:]) != payloadSize ||
			binary.LittleEndian.Uint32(data[off+4:]) != crc32.ChecksumIEEE(data[off+frameHeader:off+frameSize]) {
			t.Fatalf("WAL frame %d at byte %d is not a record", len(recs), off)
		}
		recs = append(recs, decodeRecord(data[off+frameHeader:off+frameSize]))
	}
	for i, b := range data[off:] {
		if b != 0 {
			t.Fatalf("WAL byte %d, after its %d records, is %#x: want zero", off+i, len(recs), b)
		}
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	recs := []Record{
		{Kind: RecGrant, Lock: 1, Epoch: 0, Mode: modes.W, Token: true, Root: 0, TS: 10},
		{Kind: RecRelease, Lock: 1, Epoch: 0, Mode: modes.None, Token: true, Root: 0, TS: 11},
		{Kind: RecRecovery, Lock: 2, Epoch: 5, Mode: modes.R, Token: false, Root: 3, TS: 20},
		{Kind: RecEpoch, Lock: 1, Epoch: 7, Mode: modes.None, Token: false, Root: -1, TS: 30},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 2 {
		t.Fatalf("state = %+v, want 2 locks", state)
	}
	if r := state[1]; r != recs[3] {
		t.Fatalf("lock 1 = %+v, want last record %+v", r, recs[3])
	}
	if r := state[2]; r != recs[2] {
		t.Fatalf("lock 2 = %+v, want %+v", r, recs[2])
	}
	if MaxEpoch(state) != 7 {
		t.Fatalf("MaxEpoch = %d", MaxEpoch(state))
	}
}

// TestTornTailTruncation is the core durability property: a crash can
// tear the final frame at any byte boundary, and replay must keep
// every complete record before the tear and nothing after it.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	const n = 8
	rec := func(i int) Record {
		return Record{Kind: RecGrant, Lock: proto.LockID(i), Epoch: uint32(i), Mode: modes.W, TS: uint64(i)}
	}
	for i := 0; i < n; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	full, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	const frame = frameHeader + payloadSize
	recs := walOnDisk(t, dir)
	if len(recs) != n {
		t.Fatalf("wal holds %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r != rec(i) {
			t.Fatalf("wal record %d = %+v, want %+v", i, r, rec(i))
		}
	}

	// Truncate at every byte offset inside the final two frames.
	for cut := (n - 2) * frame; cut < n*frame; cut++ {
		if err := os.WriteFile(wal, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		state, err := Replay(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := cut / frame // complete frames before the tear
		if len(state) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(state), want)
		}
		for i := 0; i < want; i++ {
			if r, ok := state[proto.LockID(i)]; !ok || r.Epoch != uint32(i) {
				t.Fatalf("cut %d: lock %d = %+v, %v", cut, i, r, ok)
			}
		}
	}
}

// TestCorruptFrameStopsReplay flips bytes in the middle of the log:
// replay must stop at the first bad CRC and keep the clean prefix.
func TestCorruptFrameStopsReplay(t *testing.T) {
	const frame = frameHeader + payloadSize
	cases := []struct {
		name   string
		offset int // byte to corrupt, within frame index 2
	}{
		{"payload-byte", 2*frame + frameHeader + 3},
		{"crc-byte", 2*frame + 5},
		{"length-prefix", 2 * frame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
			for i := 0; i < 5; i++ {
				if err := j.Append(Record{Kind: RecGrant, Lock: proto.LockID(i), Epoch: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			wal := filepath.Join(dir, walName)
			data, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			data[tc.offset] ^= 0xff
			if err := os.WriteFile(wal, data, 0o644); err != nil {
				t.Fatal(err)
			}
			state, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(state) != 2 {
				t.Fatalf("recovered %d records past corruption at frame 2, want 2", len(state))
			}
			for i := 0; i < 2; i++ {
				if _, ok := state[proto.LockID(i)]; !ok {
					t.Fatalf("clean prefix record %d lost", i)
				}
			}
		})
	}
}

// TestAppendAfterTornTailReplays: a journal reopened over a torn or
// corrupt tail cuts the WAL back to its clean prefix before its first
// append, so what it appends after the restart replays — a record written
// behind the bad frame would be lost to every later replay, and a second
// restart would roll its epochs back. A clean reopen keeps everything.
// The reopened journal counts the WAL's records exactly.
func TestAppendAfterTornTailReplays(t *testing.T) {
	const frame = frameHeader + payloadSize
	for _, tc := range []struct {
		name string
		bad  func(wal []byte) []byte // damage to the third frame
		kept int                     // records the reopen finds
	}{
		{"torn", func(wal []byte) []byte { return wal[:2*frame+5] }, 2},
		{"corrupt-crc", func(wal []byte) []byte { wal[2*frame+5] ^= 0xff; return wal }, 2},
		{"clean", func(wal []byte) []byte { return wal }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
			for i := 1; i <= 3; i++ {
				if err := j.Append(Record{Kind: RecGrant, Lock: proto.LockID(i), Epoch: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			wal := filepath.Join(dir, walName)
			data, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wal, tc.bad(data), 0o644); err != nil {
				t.Fatal(err)
			}

			j = mustOpen(t, dir, Options{Fsync: FsyncAlways})
			if st := j.Stats(); st.WALRecords != tc.kept || st.WALBytes != int64(tc.kept*frame) {
				t.Fatalf("reopened: %d WAL records in %d bytes, want %d in %d",
					st.WALRecords, st.WALBytes, tc.kept, tc.kept*frame)
			}
			bumped := Record{Kind: RecEpoch, Lock: 1, Epoch: 7}
			if err := j.Append(bumped); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			state, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if r := state[1]; r != bumped {
				t.Fatalf("lock 1 replays as %+v, want the record appended after the reopen, %+v", r, bumped)
			}
			if len(state) != tc.kept {
				t.Fatalf("replay holds %d locks, want %d", len(state), tc.kept)
			}
			recs := walOnDisk(t, dir)
			if len(recs) != tc.kept+1 || recs[tc.kept] != bumped {
				t.Fatalf("WAL after the append holds %+v: want %d records, then %+v", recs, tc.kept, bumped)
			}
			for i, r := range recs[:tc.kept] {
				if want := (Record{Kind: RecGrant, Lock: proto.LockID(i + 1), Epoch: 1}); r != want {
					t.Fatalf("WAL record %d = %+v, want %+v", i, r, want)
				}
			}
		})
	}
}

func TestSnapshotRotationBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways, SnapshotEvery: 10})
	for i := 0; i < 35; i++ {
		if err := j.Append(Record{
			Kind: RecGrant, Lock: proto.LockID(i % 4), Epoch: uint32(i), TS: uint64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Snapshots != 3 {
		t.Fatalf("snapshots = %d, want 3", st.Snapshots)
	}
	if st.WALRecords >= 10 {
		t.Fatalf("WAL records = %d, rotation did not bound it", st.WALRecords)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay across the snapshot + residual WAL reproduces the fold.
	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 4 {
		t.Fatalf("state = %d locks, want 4", len(state))
	}
	if r := state[2]; r.Epoch != 34 { // i=34 is the last write to lock 34%4=2
		t.Fatalf("lock 2 = %+v, want epoch 34", r)
	}
}

func TestReopenContinuesJournal(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	if err := j.Append(Record{Kind: RecGrant, Lock: 9, Epoch: 3, Token: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	if r, ok := j2.State()[9]; !ok || r.Epoch != 3 || !r.Token {
		t.Fatalf("reopened state = %+v, %v", r, ok)
	}
	if err := j2.Append(Record{Kind: RecEpoch, Lock: 9, Epoch: 8}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := state[9]; r.Epoch != 8 {
		t.Fatalf("lock 9 = %+v after reopen+append", r)
	}
}

func TestBatchedPolicySyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncBatched, BatchInterval: time.Millisecond})
	for i := 0; i < 10; i++ {
		if err := j.Append(Record{Kind: RecGrant, Lock: proto.LockID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batched flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 10 {
		t.Fatalf("replayed %d records", len(state))
	}
}

func TestNeverPolicyStillReplays(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncNever})
	if err := j.Append(Record{Kind: RecGrant, Lock: 1, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Fsyncs != 0 {
		t.Fatalf("never policy issued %d fsyncs", st.Fsyncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state[1].Epoch != 2 {
		t.Fatalf("state = %+v", state)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: RecGrant, Lock: 1}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	state, err := Replay(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 0 {
		t.Fatalf("state = %+v", state)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"": FsyncBatched, "batched": FsyncBatched, "always": FsyncAlways, "never": FsyncNever,
	} {
		p, err := ParsePolicy(s)
		if err != nil || p != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestCrashMidSnapshotRecovers models a crash between writing the
// snapshot temp file and renaming it over snapshot.snap: the stray
// temp file must be ignored by Replay and the pre-crash state must
// come back intact from the existing snapshot + WAL.
func TestCrashMidSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[proto.LockID]Record{}
	for i := 0; i < 8; i++ {
		r := Record{Kind: RecGrant, Lock: proto.LockID(i % 3), Epoch: uint32(i + 1), Mode: modes.W, Root: 2, TS: uint64(i)}
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		want[r.Lock] = r
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash left a half-written snapshot temp file behind.
	if err := os.WriteFile(filepath.Join(dir, "snapshot-crash.tmp"), []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d locks, want %d", len(got), len(want))
	}
	for lock, w := range want {
		if got[lock] != w {
			t.Fatalf("lock %d: replayed %+v, want %+v", lock, got[lock], w)
		}
	}
}

// TestReplayParentCommitWAL replays a WAL written by the commit before
// hold changes stopped being journaled (member 0 of a three-member
// durable cluster: grants, releases, token transfers, an upgrade, a
// crash, regeneration rounds). The format did not change, kinds 1 and 2
// are still decodable, and the fold is the one that commit computed.
func TestReplayParentCommitWAL(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("testdata", "parent-pr15-member0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	const frame = frameHeader + payloadSize
	kinds := make(map[Kind]int)
	for off := 0; off+frame <= len(wal); off += frame {
		kinds[decodeRecord(wal[off+frameHeader:off+frame]).Kind]++
	}
	for _, k := range []Kind{RecGrant, RecRelease, RecEpoch, RecRecovery, RecToken} {
		if kinds[k] == 0 {
			t.Fatalf("fixture has no %v record (kinds: %v)", k, kinds)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[proto.LockID]Record{
		0xf440a887b7600785: {Kind: RecToken, Lock: 0xf440a887b7600785, Epoch: 2, Root: 0, TS: 0x97},
		0xf440a587b760026c: {Kind: RecRecovery, Lock: 0xf440a587b760026c, Epoch: 2, Token: true, Root: 0, TS: 0x90},
		0x55064bfc919621:   {Kind: RecRecovery, Lock: 0x55064bfc919621, Epoch: 2, Token: true, Root: 0, TS: 0x8c},
	}
	j := mustOpen(t, dir, Options{})
	defer j.Close()
	got := j.State()
	if len(got) != len(want) {
		t.Fatalf("replayed %d locks, want %d: %+v", len(got), len(want), got)
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("lock %#x = %+v, want %+v", uint64(l), got[l], w)
		}
	}
	if st := j.Stats(); st.WALRecords != len(wal)/frame {
		t.Errorf("reopened WAL counts %d records, want %d", st.WALRecords, len(wal)/frame)
	}
}

// parkBatchSync makes the flusher's next fsync (and only that one) stop
// under syncMu: parked is closed when it gets there, and it goes on when
// the returned release func is called.
func parkBatchSync(j *Journal) (parked chan struct{}, release func()) {
	parked = make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	j.mu.Lock()
	j.parkSync = func() {
		once.Do(func() {
			close(parked)
			<-gate
		})
	}
	j.mu.Unlock()
	return parked, func() { close(gate) }
}

func waitParked(t *testing.T, parked chan struct{}) {
	t.Helper()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher never reached its fsync")
	}
}

// TestAppendDuringParkedBatchSync: the batched fsync runs outside the
// append lock. While the flusher sits in its fsync an Append returns, its
// record is in State, and it marks the journal dirty again: the next tick
// syncs once more with no further append, and the record replays.
func TestAppendDuringParkedBatchSync(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncBatched, BatchInterval: time.Millisecond})
	parked, release := parkBatchSync(j)
	if err := j.Append(Record{Kind: RecToken, Lock: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	waitParked(t, parked)

	appended := make(chan error, 1)
	go func() { appended <- j.Append(Record{Kind: RecToken, Lock: 2, Epoch: 7, Token: true}) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append waited for the flusher's fsync")
	}
	if r, ok := j.State()[2]; !ok || r.Epoch != 7 {
		t.Fatalf("State()[2] = %+v, %v while the fsync was parked", r, ok)
	}
	if n := j.Stats().Fsyncs; n != 0 {
		t.Fatalf("%d fsyncs completed while the only one was parked", n)
	}

	release()
	deadline := time.Now().Add(5 * time.Second)
	for j.Stats().Fsyncs < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d fsyncs: the append made during the parked one was never covered by a tick", j.Stats().Fsyncs)
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 2 || state[2].Epoch != 7 || !state[2].Token {
		t.Fatalf("replayed %+v", state)
	}
}

// TestSnapshotAndCloseWaitForParkedBatchSync: Snapshot and Close racing
// the flusher's fsync take their turn behind it — neither returns, and
// the WAL is not truncated, while it is parked — and neither deadlocks
// once it goes on. Every record survives either way.
func TestSnapshotAndCloseWaitForParkedBatchSync(t *testing.T) {
	const records = 5
	for round := 0; round < 50; round++ {
		dir := t.TempDir()
		j := mustOpen(t, dir, Options{Fsync: FsyncBatched, BatchInterval: time.Millisecond})
		parked, release := parkBatchSync(j)
		var appended []Record
		for i := 1; i <= records; i++ {
			r := Record{Kind: RecToken, Lock: proto.LockID(i), Epoch: uint32(round)}
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
			appended = append(appended, r)
		}
		waitParked(t, parked)
		done := make(chan error, 1)
		go func() {
			if round%2 == 0 {
				if err := j.Snapshot(); err != nil {
					done <- err
					return
				}
			}
			done <- j.Close()
		}()
		select {
		case err := <-done:
			t.Fatalf("round %d: finished under a parked fsync (err %v)", round, err)
		case <-time.After(2 * time.Millisecond):
		}
		if recs := walOnDisk(t, dir); !slices.Equal(recs, appended) {
			t.Fatalf("round %d: WAL holds %+v under a parked fsync, want the %d records appended", round, recs, records)
		}
		release()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Snapshot/Close deadlocked against the flusher", round)
		}
		state, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(state) != records {
			t.Fatalf("round %d: replayed %d of %d records", round, len(state), records)
		}
		want := appended
		if round%2 == 0 {
			want = nil // the snapshot round leaves no record in the WAL
		}
		if recs := walOnDisk(t, dir); !slices.Equal(recs, want) {
			t.Fatalf("round %d: WAL holds %+v after the race, want %+v", round, recs, want)
		}
	}
}

// TestFlusherSleepsUntilDirtied: the batched flusher has no ticker. An
// idle journal syncs nothing; an append to a clean WAL wakes it, the
// batch gets its interval to fill, and the sync lands within two; a clean
// WAL is not synced again, and the next append is covered as the first
// was. A third journal, with a short interval, is left alone past
// idleTicks so the flusher really goes back to sleep, and must still
// wake for the append after that.
func TestFlusherSleepsUntilDirtied(t *testing.T) {
	const interval = 100 * time.Millisecond
	j := mustOpen(t, t.TempDir(), Options{Fsync: FsyncBatched, BatchInterval: interval})
	defer j.Close()
	time.Sleep(50 * time.Millisecond)
	if n := j.Stats().Fsyncs; n != 0 {
		t.Fatalf("%d fsyncs on an idle journal", n)
	}
	for want := uint64(1); want <= 2; want++ {
		start := time.Now()
		if err := j.Append(Record{Kind: RecToken, Lock: 1, Epoch: uint32(want)}); err != nil {
			t.Fatal(err)
		}
		for j.Stats().Fsyncs < want {
			if time.Since(start) > 2*interval {
				t.Fatalf("append %d not synced within two intervals", want)
			}
			time.Sleep(time.Millisecond)
		}
		// The first append found the flusher asleep: its batch gets a whole
		// interval. The second falls between two ticks of a flusher still
		// ticking, as under a ticker.
		if d := time.Since(start); want == 1 && d < interval/2 {
			t.Fatalf("the first append synced after %v: the batch got no interval to fill", d)
		}
		time.Sleep(interval + interval/2)
		if n := j.Stats().Fsyncs; n != want {
			t.Fatalf("%d fsyncs after append %d and an idle interval, want %d", n, want, want)
		}
	}

	const short = time.Millisecond
	k := mustOpen(t, t.TempDir(), Options{Fsync: FsyncBatched, BatchInterval: short})
	defer k.Close()
	for want := uint64(1); want <= 2; want++ {
		if err := k.Append(Record{Kind: RecToken, Lock: 1, Epoch: uint32(want)}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); k.Stats().Fsyncs < want; time.Sleep(short) {
			if time.Now().After(deadline) {
				t.Fatalf("append %d never synced: the sleeping flusher missed its wake-up", want)
			}
		}
		time.Sleep(3 * idleTicks * short) // long enough to fall asleep
		if n := k.Stats().Fsyncs; n != want {
			t.Fatalf("%d fsyncs with %d appends", n, want)
		}
	}
}
