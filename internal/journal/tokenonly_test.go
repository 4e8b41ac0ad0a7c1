package journal

import (
	"maps"
	"testing"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// passToken appends n token-only records for lock, at epoch and root,
// the token bit alternating as a token passed back and forth leaves it.
func passToken(t *testing.T, j *Journal, lock proto.LockID, epoch uint32, root proto.NodeID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := Record{Kind: RecToken, Lock: lock, Epoch: epoch, Mode: modes.W, Token: i%2 == 1, Root: root, TS: uint64(i)}
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// assertAsleep fails unless j has no unsynced syncing append and no
// wake-up pending: what the last appends left is token-only, and none
// of them woke the flusher. An append that does wake it marks the WAL
// dirty first, and the mark stays until the flusher's next tick.
func assertAsleep(t *testing.T, j *Journal, what string) {
	t.Helper()
	j.mu.Lock()
	dirty, pending := j.dirty, len(j.wake)
	j.mu.Unlock()
	if dirty || pending != 0 {
		t.Fatalf("%s: WAL dirty %v, %d wake-ups pending: a token-only append asked for a sync", what, dirty, pending)
	}
}

// TestTokenOnlyAppendsSyncNothing: under FsyncBatched a run of appends
// that moves only the token bit of a lock the journal names, at its
// epoch and root, issues no fsync and wakes no flusher — whether the
// lock was named by an append, by Open's replay of the WAL, or by a
// snapshot. Explicit syncs still cover them, and FsyncAlways syncs every
// append as before.
func TestTokenOnlyAppendsSyncNothing(t *testing.T) {
	const interval = time.Millisecond
	dir := t.TempDir()
	opts := Options{Fsync: FsyncBatched, BatchInterval: interval}
	j := mustOpen(t, dir, opts)
	if err := j.Append(Record{Kind: RecGrant, Lock: 1, Epoch: 3, Mode: modes.W, Token: true, Root: 2}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); j.Stats().Fsyncs == 0; time.Sleep(interval) {
		if time.Now().After(deadline) {
			t.Fatal("the lock's first record was never synced")
		}
	}
	synced := j.Stats().Fsyncs
	passToken(t, j, 1, 3, 2, 500)
	assertAsleep(t, j, "named by an append")
	time.Sleep(20 * interval)
	if n := j.Stats().Fsyncs; n != synced {
		t.Fatalf("500 token-only appends issued %d fsyncs", n-synced)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j = mustOpen(t, dir, opts)
	passToken(t, j, 1, 3, 2, 500)
	assertAsleep(t, j, "named by Open's replay")
	time.Sleep(20 * interval)
	if n := j.Stats().Fsyncs; n != 0 {
		t.Fatalf("token-only appends to a replayed lock issued %d fsyncs", n)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	synced = j.Stats().Fsyncs
	passToken(t, j, 1, 3, 2, 500)
	assertAsleep(t, j, "after a snapshot")
	time.Sleep(20 * interval)
	if n := j.Stats().Fsyncs; n != synced {
		t.Fatalf("token-only appends after a snapshot issued %d fsyncs", n-synced)
	}
	if err := j.Snapshot(); err != nil { // the WAL is empty: only the snapshot names the lock
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j = mustOpen(t, dir, opts)
	defer j.Close()
	passToken(t, j, 1, 3, 2, 500)
	assertAsleep(t, j, "named by a replayed snapshot")
	time.Sleep(20 * interval)
	if n := j.Stats().Fsyncs; n != 0 {
		t.Fatalf("token-only appends to a lock replayed from the snapshot issued %d fsyncs", n)
	}

	always := mustOpen(t, t.TempDir(), Options{Fsync: FsyncAlways})
	defer always.Close()
	if err := always.Append(Record{Kind: RecGrant, Lock: 1, Epoch: 3, Token: true, Root: 2}); err != nil {
		t.Fatal(err)
	}
	passToken(t, always, 1, 3, 2, 10)
	if n := always.Stats().Fsyncs; n != 11 {
		t.Fatalf("FsyncAlways issued %d fsyncs for 11 appends", n)
	}
}

// TestSyncingAppendsCoverTokenOnlyOnes: a lock's first record, an epoch
// change, a root change and a recovery reseed each keep the batched
// contract — synced within two intervals of a flusher they wake — and
// each comes after a run of token-only appends, which the same sync
// covers: what replays equals State, in the page cache and after Close.
func TestSyncingAppendsCoverTokenOnlyOnes(t *testing.T) {
	const interval = 100 * time.Millisecond
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncBatched, BatchInterval: interval})
	for _, c := range []struct {
		name string
		r    Record
	}{
		{"first record", Record{Kind: RecGrant, Lock: 1, Epoch: 0, Mode: modes.W, Token: true, Root: 0}},
		{"another lock's first record", Record{Kind: RecToken, Lock: 2, Epoch: 0, Root: 0}},
		{"epoch change", Record{Kind: RecEpoch, Lock: 1, Epoch: 1, Token: true, Root: 0}},
		{"root change", Record{Kind: RecToken, Lock: 1, Epoch: 1, Token: true, Root: 1}},
		{"reseed at the same epoch and root", Record{Kind: RecRecovery, Lock: 1, Epoch: 1, Token: false, Root: 1}},
	} {
		before := j.Stats().Fsyncs
		if prev, ok := j.State()[1]; ok {
			passToken(t, j, 1, prev.Epoch, prev.Root, 51)
			assertAsleep(t, j, c.name)
		}
		start := time.Now()
		if err := j.Append(c.r); err != nil {
			t.Fatal(err)
		}
		for j.Stats().Fsyncs == before {
			if time.Since(start) > 2*interval {
				t.Fatalf("%s not synced within two intervals", c.name)
			}
			time.Sleep(time.Millisecond)
		}
		state, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := j.State(); !maps.Equal(state, want) {
			t.Fatalf("%s: replayed %+v, State %+v", c.name, state, want)
		}
	}
	want := j.State()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(state, want) {
		t.Fatalf("replayed %+v after Close, State was %+v", state, want)
	}
}
