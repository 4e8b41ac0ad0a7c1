// Package journal is the per-member durable write-ahead log. Every
// change to what replay restores — token ownership moving, an epoch
// advance, a recovery reseed, and a lock's first grant (which puts the
// lock in the log at all) — is appended as a self-contained record
// before the member acts on it, so a restarted member replays the log
// and rejoins at the epoch it last participated in instead of silently
// resetting to epoch 0 (which would void the fencing guarantees the
// epochs exist for).
//
// Records are length-prefixed and CRC-framed:
//
//	[u32 length][u32 crc32(payload)][payload]
//
// Replay stops cleanly at the first short, oversized or corrupt frame
// (a torn tail from a crash mid-write), keeping every record before it;
// Open cuts the WAL back to those records before it appends. Each record
// carries the complete per-lock state (last record wins), so replay is a
// single forward scan into a map and a snapshot is just the map
// re-encoded — the same framing, compacted.
//
// The WAL file is zero-filled ahead of its records, to the room one
// snapshot cadence needs, and an append is a store through a shared,
// writable mapping of a small window over its tail: no system call, and
// the record is in the page cache, where a killed process cannot lose it,
// when Append returns. A zero length prefix ends replay like any short
// frame, so the records end at the first zero frame. A snapshot truncates
// the WAL to zero, then zero-fills it again; the used prefix is never
// zeroed in place.
//
// Fsync policy is the durability/throughput knob: FsyncAlways syncs
// inline on every append, FsyncBatched (the default) amortizes syncs
// on a background cadence, outside the append lock, FsyncNever leaves
// flushing to the OS. FsyncBatched syncs only the records safety rests
// on. A record that changes nothing but the token bit of a lock the
// journal already names, at the same epoch and root, is token-only: it
// is stored like any other and covered by whatever sync comes next, but
// it neither dirties the WAL nor wakes the flusher, so a token passed
// back and forth costs the disk nothing. A power loss can lose such
// records since the last sync; a stale token bit costs availability at
// boot, never safety, because a replayed token starts fenced and every
// named lock gets a cold-start round above its synced epoch. A sync is
// fdatasync where the OS has it: the file's length changes at a snapshot
// only. The first failed sync, like any other failure of the WAL file,
// is returned by every later Append, Sync and Snapshot.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Kind classifies a journal record. The kind is informational — the
// record body always carries the complete per-lock state, so replay
// does not branch on it — but it keeps the log legible and lets tools
// tell token movement from recoveries.
type Kind uint8

// Record kinds. The byte values are part of the on-disk format.
const (
	RecGrant    Kind = iota + 1 // the first local hold on a lock the journal had no record of
	RecRelease                  // a local hold was released; not emitted any more, decoded from older logs
	RecEpoch                    // the lock's epoch advanced (fence observed)
	RecRecovery                 // a recovery reseed installed new state
	RecToken                    // token ownership moved
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case RecGrant:
		return "grant"
	case RecRelease:
		return "release"
	case RecEpoch:
		return "epoch"
	case RecRecovery:
		return "recovery"
	case RecToken:
		return "token"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// Record is one journal entry: a complete snapshot of a single lock's
// durable state at the time it was written. Mode is whatever was held
// when the record was appended, for reading the log; it is NOT restored
// on replay — client holds die with the process that granted them — and
// a change of hold alone appends nothing.
type Record struct {
	Kind  Kind
	Lock  proto.LockID
	Epoch uint32
	Mode  modes.Mode   // local hold at append time
	Token bool         // this member held the token node
	Root  proto.NodeID // probable owner / recovery root at append time
	TS    uint64       // Lamport timestamp at append time
}

// payloadSize is the fixed encoded size of a Record.
const payloadSize = 1 + 8 + 4 + 1 + 1 + 4 + 8 // kind lock epoch mode flags root ts

// frameHeader is the per-record framing overhead.
const frameHeader = 8 // u32 length + u32 crc

// frameSize is the WAL bytes one record takes.
const frameSize = frameHeader + payloadSize

// maxFrame bounds the length prefix accepted during replay; anything
// larger is treated as corruption (current records are payloadSize
// bytes; the slack admits forward-compatible growth).
const maxFrame = 1024

func (r Record) encode(buf []byte) {
	buf[0] = byte(r.Kind)
	binary.LittleEndian.PutUint64(buf[1:], uint64(r.Lock))
	binary.LittleEndian.PutUint32(buf[9:], r.Epoch)
	buf[13] = byte(r.Mode)
	if r.Token {
		buf[14] = 1
	} else {
		buf[14] = 0
	}
	binary.LittleEndian.PutUint32(buf[15:], uint32(r.Root))
	binary.LittleEndian.PutUint64(buf[19:], r.TS)
}

// putFrame encodes r as one frame into buf[:frameSize].
func putFrame(buf []byte, r Record) {
	binary.LittleEndian.PutUint32(buf[0:], payloadSize)
	r.encode(buf[frameHeader:frameSize])
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[frameHeader:frameSize]))
}

func decodeRecord(buf []byte) Record {
	return Record{
		Kind:  Kind(buf[0]),
		Lock:  proto.LockID(binary.LittleEndian.Uint64(buf[1:])),
		Epoch: binary.LittleEndian.Uint32(buf[9:]),
		Mode:  modes.Mode(buf[13]),
		Token: buf[14] == 1,
		Root:  proto.NodeID(int32(binary.LittleEndian.Uint32(buf[15:]))),
		TS:    binary.LittleEndian.Uint64(buf[19:]),
	}
}

// Policy selects when appends reach stable storage.
type Policy int

// Fsync policies.
const (
	FsyncBatched Policy = iota // group fsync on the batch cadence; token-only records wait for the next (default)
	FsyncAlways                // fsync inline on every append
	FsyncNever                 // never fsync; the OS flushes eventually
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FsyncBatched:
		return "batched"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("invalid(%d)", int(p))
	}
}

// ParsePolicy maps a flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "batched", "":
		return FsyncBatched, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, batched or never)", s)
}

// Default tuning.
const (
	// DefaultBatchInterval is the batched policy's fsync cadence: a power
	// loss loses at most this window of the records that name a lock or
	// change its epoch or root, plus one fsync's duration. Token-only
	// records wait for the next sync, however far off: a power loss can
	// lose every one since, and cold-start reconciliation at boot makes
	// up for them (see the package comment).
	DefaultBatchInterval = 2 * time.Millisecond
	// DefaultSnapshotEvery bounds replay: once this many WAL records
	// accumulate the state map is compacted into a snapshot and the WAL
	// truncated.
	DefaultSnapshotEvery = 4096
)

// Options configures Open.
type Options struct {
	Fsync         Policy
	BatchInterval time.Duration // batched-policy sync cadence; DefaultBatchInterval if zero
	SnapshotEvery int           // WAL records per snapshot; DefaultSnapshotEvery if zero, <0 disables
}

// Stats is a point-in-time snapshot of journal counters, exported for
// metrics scrapes and the debug endpoint.
type Stats struct {
	Records    uint64        // records appended since Open
	WALBytes   int64         // bytes of the records in the WAL; zeros follow them in the file
	WALRecords int           // records in the WAL since the last snapshot
	Fsyncs     uint64        // syncs issued: the WAL's, and each snapshot's temp file
	FsyncTime  time.Duration // cumulative time spent in fsync
	Snapshots  uint64        // snapshot rotations completed
	Locks      int           // distinct locks in the state map
}

// Journal is a single member's WAL plus snapshot pair rooted at one
// directory. Safe for concurrent use.
type Journal struct {
	dir    string
	policy Policy
	batch  time.Duration
	snapEv int

	mu         sync.Mutex
	wal        *os.File
	state      map[proto.LockID]Record
	walRecords int
	walBytes   int64 // the records' bytes: where the next one goes
	size       int64 // the file's length, records and the zeros after them
	// win maps [winOff, winOff+len(win)) of the WAL, over its tail. It
	// changes under mu and syncMu both: a sync reads it (Windows flushes
	// the view) holding syncMu alone.
	win    []byte
	winOff int64
	dirty  bool // unsynced appends that are not token-only (batched policy)
	closed bool
	// err is the first failure of the WAL file: a sync, a store into the
	// mapping, a truncation or a remap. Once set the WAL's durability is
	// unknown, and every later Append, Sync, Snapshot and Close returns it.
	err error
	// wake tells the sleeping flusher that an append dirtied a clean WAL.
	// Sent and drained under mu, so a token is there exactly while an
	// append waits for a tick to cover it.
	wake chan struct{}

	// syncMu serialises every WAL fsync against Truncate and Close. The
	// flusher takes it alone; everyone else takes it after mu.
	syncMu sync.Mutex
	// parkSync, when set (tests only), runs under syncMu just before the
	// flusher's fsync. Guarded by mu.
	parkSync func()
	// syncErr, when set (tests only), replaces the result of every sync.
	// Guarded by syncMu.
	syncErr error

	records   atomic.Uint64
	fsyncs    atomic.Uint64
	fsyncNano atomic.Int64
	snapshots atomic.Uint64

	// observeFsync, when set, receives every fsync's individual latency
	// (the cumulative fsyncNano only exposes a mean; a latency histogram
	// needs each sample). Called with j.syncMu held, and j.mu too unless
	// the flusher is the caller — keep it cheap.
	observeFsync atomic.Pointer[func(time.Duration)]

	done chan struct{}
	wg   sync.WaitGroup
}

const (
	walName  = "journal.wal"
	snapName = "snapshot.snap"
)

const (
	// windowGranules is the mapped window's length in mapping granules: a
	// page on unix (16 KiB windows, a remap every ~460 records, at most
	// four resident pages), 64 KiB on Windows (the whole WAL at the default
	// cadence). It is more than one granule plus a frame, so a window
	// started at the granule holding the tail always has room for the next
	// record.
	windowGranules = 4
	// growStep is how far the WAL is zero-filled past its records when
	// snapshots are off, and again each time they reach its end.
	growStep = 64 << 10
)

// Open creates or reopens the journal in dir, replaying any existing
// snapshot and WAL into the in-memory state map. The directory is
// created if absent.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	state, clean, records, err := replay(dir)
	if err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:        dir,
		policy:     opts.Fsync,
		batch:      opts.BatchInterval,
		snapEv:     opts.SnapshotEvery,
		wal:        wal,
		state:      state,
		walRecords: records,
		walBytes:   clean,
		done:       make(chan struct{}),
		wake:       make(chan struct{}, 1),
	}
	if j.batch <= 0 {
		j.batch = DefaultBatchInterval
	}
	if j.snapEv == 0 {
		j.snapEv = DefaultSnapshotEvery
	}
	if err := j.prepare(); err != nil {
		wal.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if j.policy == FsyncBatched {
		j.wg.Add(1)
		go j.flusher()
	}
	return j, nil
}

// prepare readies a freshly opened WAL for appends. Replay stopped at the
// first torn or corrupt frame, or at the zeros after the records. Cut the
// WAL back to the frames it kept, and sync that, before the first append:
// a record stored behind bad bytes would be invisible to every later
// replay, and one stored over them could leave older valid frames after
// it, to be replayed over it. Then zero-fill and map the tail.
func (j *Journal) prepare() error {
	info, err := j.wal.Stat()
	if err != nil {
		return err
	}
	if info.Size() > j.walBytes {
		if err := j.wal.Truncate(j.walBytes); err != nil {
			return err
		}
		if err := datasync(j.wal, nil); err != nil {
			return err
		}
	}
	return j.zeroFill()
}

// capacity is the length the WAL is zero-filled to: room for one snapshot
// cadence of records (the append that reaches it snapshots), or growStep
// bytes past the records when snapshots are off or the records already
// fill that.
func (j *Journal) capacity() int64 {
	if size := int64(j.snapEv+1) * frameSize; j.snapEv > 0 && j.walBytes+frameSize <= size {
		return size
	}
	return j.walBytes + growStep
}

// zeroFill zero-fills the WAL past its records to capacity and maps the
// window over the tail.
func (j *Journal) zeroFill() error {
	j.size = j.capacity()
	if err := j.wal.Truncate(j.size); err != nil {
		return err
	}
	return j.mapTail()
}

// mapTail maps the window over the granule holding the tail.
func (j *Journal) mapTail() error {
	off := j.walBytes / mapGranularity * mapGranularity
	win, err := mmap(j.wal, off, int(min(windowGranules*mapGranularity, j.size-off)))
	if err != nil {
		return err
	}
	j.win, j.winOff = win, off
	return nil
}

// unmap drops the window. Callers hold j.mu and j.syncMu.
func (j *Journal) unmap() error {
	if j.win == nil {
		return nil
	}
	err := munmap(j.win)
	j.win = nil
	return err
}

// remap moves the window over the tail once the next record would pass
// its end, zero-filling the WAL further first if the record would pass
// the file's. Callers hold j.mu; the window changes under j.syncMu too.
func (j *Journal) remap() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if err := j.unmap(); err != nil {
		return err
	}
	if j.walBytes+frameSize > j.size {
		return j.zeroFill()
	}
	return j.mapTail()
}

// fail records err as the journal's first failure of the WAL file, if it
// is the first, and returns that first failure. Callers hold j.mu.
func (j *Journal) fail(err error) error {
	if j.err == nil {
		j.err = err
	}
	return j.err
}

// idleTicks is how many consecutive clean ticks send the flusher to
// sleep. Not one: a journal whose syncing appends come in bursts a few
// intervals apart would then sleep and be woken hundreds of times a
// second, each wake-up a goroutine hand-off on the append path. A token
// that two clients fight over was such a journal, measured at 7 % of
// hot-key's throughput; its records are token-only now and wake nothing,
// so what keeps the flusher ticking is a run of first grants on new
// locks or of epoch changes.
const idleTicks = 64

// flusher is the batched-policy background goroutine: it syncs dirty
// appends on the batch cadence so the grant path never blocks on the
// disk, amortizing one fsync over every append in the window, the
// token-only ones stored before it included. It sleeps
// until an append dirties a clean WAL, gives the batch one interval to
// fill, and syncs; while appends keep coming it ticks on, one interval
// from each fsync's start to the next, and idleTicks clean ticks in a row
// put it back to sleep — an idle journal wakes nobody. The fsync runs
// outside j.mu: an append that arrives meanwhile stores its record, marks
// the journal dirty again and is covered by the next tick. A failed fsync
// fails the journal: the appends it covered may be lost.
func (j *Journal) flusher() {
	defer j.wg.Done()
	t := time.NewTimer(time.Hour)
	t.Stop() // armed by each wake-up
	for {
		select {
		case <-j.done:
			return
		case <-j.wake:
		}
		t.Reset(j.batch)
		for clean := 0; clean < idleTicks; {
			select {
			case <-j.done:
				return
			case <-t.C:
			}
			j.mu.Lock()
			dirty, park := j.dirty && !j.closed, j.parkSync
			j.dirty = false
			select {
			case <-j.wake: // this tick covers the append that sent it
			default:
			}
			j.mu.Unlock()
			if !dirty {
				if clean++; clean < idleTicks {
					t.Reset(j.batch)
				}
				continue
			}
			clean = 0
			t.Reset(j.batch) // what is appended from here on is due one interval from now
			j.syncMu.Lock()
			if park != nil {
				park()
			}
			err := j.fsync()
			j.syncMu.Unlock()
			if err != nil {
				j.mu.Lock()
				if !j.closed { // after Close this fails; Close synced already
					j.fail(fmt.Errorf("journal: sync: %w", err))
				}
				j.mu.Unlock()
			}
		}
	}
}

// SetFsyncObserver installs fn to receive every subsequent fsync's
// latency (nil removes it). Settable after Open so hosts can attach
// telemetry later; safe for concurrent use. fn must be too: a
// snapshot's temp-file sync may report beside a WAL sync.
func (j *Journal) SetFsyncObserver(fn func(time.Duration)) {
	if fn == nil {
		j.observeFsync.Store(nil)
		return
	}
	j.observeFsync.Store(&fn)
}

// fsync syncs the WAL's data, timing it. Callers hold j.syncMu.
func (j *Journal) fsync() error {
	start := time.Now()
	err := datasync(j.wal, j.win)
	if j.syncErr != nil {
		err = j.syncErr
	}
	return j.synced(start, err)
}

// synced accounts for one sync begun at start that ended in err: a
// successful one counts in Stats.Fsyncs and FsyncTime and reaches the
// fsync observer. The WAL's syncs and a snapshot's temp-file sync alike
// come through here.
func (j *Journal) synced(start time.Time, err error) error {
	if err != nil {
		return err
	}
	j.fsyncs.Add(1)
	d := time.Since(start)
	j.fsyncNano.Add(int64(d))
	if fn := j.observeFsync.Load(); fn != nil {
		(*fn)(d)
	}
	return nil
}

// syncLocked fsyncs the WAL inline. Callers hold j.mu.
func (j *Journal) syncLocked() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	return j.fsync()
}

// errClosed is what every call on a closed journal returns.
var errClosed = errors.New("journal: closed")

// refuse returns why the journal takes no more appends, syncs or
// snapshots: it is closed, or its WAL file failed. Callers hold j.mu.
func (j *Journal) refuse() error {
	if j.closed {
		return errClosed
	}
	return j.err
}

// Append stores one record in the WAL and folds it into the state map.
// The record is in the page cache when Append returns, so a killed
// process loses nothing; under FsyncAlways it is on stable storage too.
// Under FsyncBatched the background flusher syncs it within one batch
// interval, unless it is token-only: then the next sync, whatever
// issues it, covers it.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.refuse(); err != nil {
		return err
	}
	if j.walBytes+frameSize > j.winOff+int64(len(j.win)) {
		if err := j.remap(); err != nil {
			return j.fail(fmt.Errorf("journal: append: %w", err))
		}
	}
	if err := store(j.win[j.walBytes-j.winOff:], r); err != nil {
		return j.fail(err)
	}
	prev, named := j.state[r.Lock]
	j.state[r.Lock] = r
	j.walRecords++
	j.walBytes += frameSize
	j.records.Add(1)
	switch j.policy {
	case FsyncAlways:
		if err := j.syncLocked(); err != nil {
			return j.fail(fmt.Errorf("journal: sync: %w", err))
		}
	case FsyncBatched:
		if !j.dirty && !(named && tokenOnly(prev, r)) {
			j.dirty = true
			select {
			case j.wake <- struct{}{}:
			default: // the flusher has not picked up the last one yet
			}
		}
	}
	if j.snapEv > 0 && j.walRecords >= j.snapEv {
		return j.snapshotLocked()
	}
	return nil
}

// tokenOnly reports whether r, appended over prev, the last record of
// its lock, changes nothing a fence rests on: not the epoch, not the
// root, and it is no recovery reseed. Mode, TS and kind are
// informational, and a lost token bit is reconciled at boot.
func tokenOnly(prev, r Record) bool {
	return r.Epoch == prev.Epoch && r.Root == prev.Root && r.Kind != RecRecovery
}

// store encodes r as a frame where it goes in the mapped window, win. A
// fault there — the file was cut short under the mapping, or the disk had
// no block for the page — is an error, not a crash. A process killed part
// of the way through leaves a torn frame, which ends replay.
func store(win []byte, r Record) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("journal: append: fault on the mapped WAL: %v", p)
		}
	}()
	putFrame(win, r)
	return nil
}

// Sync forces any buffered appends to stable storage now, regardless
// of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.refuse(); err != nil {
		return err
	}
	j.dirty = false
	if err := j.syncLocked(); err != nil {
		return j.fail(fmt.Errorf("journal: sync: %w", err))
	}
	return nil
}

// Snapshot compacts the state map into the snapshot file and truncates
// the WAL, bounding the next replay to the live lock set.
func (j *Journal) Snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.refuse(); err != nil {
		return err
	}
	return j.snapshotLocked()
}

// snapshotLocked writes every state-map record to a temporary file,
// fsyncs it, atomically renames it over the snapshot, then truncates
// the WAL to zero and zero-fills it again. A crash at any point leaves
// either the old snapshot + full WAL or the new snapshot + (possibly
// still full, or empty) WAL — each replays to the same state because
// records are last-write-wins per lock and the snapshot holds exactly
// the fold of everything truncated. The WAL's records are never zeroed
// in place: a crash part-way through that would leave some of them,
// older than the snapshot, to be replayed over it.
func (j *Journal) snapshotLocked() error {
	tmp, err := os.CreateTemp(j.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	buf := make([]byte, 0, len(j.state)*frameSize)
	for _, r := range j.state {
		buf = buf[:len(buf)+frameSize]
		putFrame(buf[len(buf)-frameSize:], r)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	start := time.Now()
	if err := j.synced(start, tmp.Sync()); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(j.dir, snapName)); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	// Sync the WAL before truncating so no record exists only in the
	// kernel page cache of a file about to be emptied; syncMu keeps a
	// flusher fsync from straddling the truncation.
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if err := j.fsync(); err != nil {
		return j.fail(fmt.Errorf("journal: snapshot: %w", err))
	}
	if err := j.unmap(); err != nil {
		return j.fail(fmt.Errorf("journal: snapshot: %w", err))
	}
	if err := j.wal.Truncate(0); err != nil {
		return j.fail(fmt.Errorf("journal: snapshot truncate: %w", err))
	}
	j.walRecords = 0
	j.walBytes = 0
	if err := j.zeroFill(); err != nil {
		return j.fail(fmt.Errorf("journal: snapshot: %w", err))
	}
	j.snapshots.Add(1)
	return nil
}

// Close syncs and closes the journal. Further appends fail. It returns
// the journal's first failure, if the WAL file had one.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	close(j.done)
	j.syncMu.Lock()
	err := datasync(j.wal, j.win)
	uerr := j.unmap()
	cerr := j.wal.Close()
	j.syncMu.Unlock()
	first := j.err
	j.mu.Unlock()
	j.wg.Wait()
	for _, e := range []error{err, uerr, cerr} {
		if first == nil && e != nil {
			first = fmt.Errorf("journal: close: %w", e)
		}
	}
	return first
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	walBytes, walRecords, locks := j.walBytes, j.walRecords, len(j.state)
	j.mu.Unlock()
	return Stats{
		Records:    j.records.Load(),
		WALBytes:   walBytes,
		WALRecords: walRecords,
		Fsyncs:     j.fsyncs.Load(),
		FsyncTime:  time.Duration(j.fsyncNano.Load()),
		Snapshots:  j.snapshots.Load(),
		Locks:      locks,
	}
}

// State returns a copy of the in-memory fold of the journal: the last
// record per lock.
func (j *Journal) State() map[proto.LockID]Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[proto.LockID]Record, len(j.state))
	for l, r := range j.state {
		out[l] = r
	}
	return out
}

// Replay reads the snapshot then the WAL from dir and folds them into
// the last-record-per-lock state map. A missing directory or files
// yield an empty map. Corrupt or torn frames end the scan of that file
// cleanly — everything before the first bad frame is kept, which is
// exactly the prefix that was durable when the crash hit.
func Replay(dir string) (map[proto.LockID]Record, error) {
	state, _, _, err := replay(dir)
	return state, err
}

// replay is Replay, also returning the length of the WAL's clean prefix
// (the frames replayed, 0 without a WAL) and their number.
func replay(dir string) (state map[proto.LockID]Record, walClean int64, walRecords int, err error) {
	state = make(map[proto.LockID]Record)
	for _, name := range []string{snapName, walName} {
		f, err := os.Open(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("journal: replay: %w", err)
		}
		clean, records := replayFile(f, state)
		f.Close()
		if name == walName {
			walClean, walRecords = clean, records
		}
	}
	return state, walClean, walRecords, nil
}

// MaxEpoch returns the highest epoch in a replayed state map.
func MaxEpoch(state map[proto.LockID]Record) uint32 {
	var max uint32
	for _, r := range state {
		if r.Epoch > max {
			max = r.Epoch
		}
	}
	return max
}

// replayFile scans one file's frames into state, stopping at the first
// torn or corrupt frame, and returns the length and number of the frames
// it replayed.
func replayFile(f *os.File, state map[proto.LockID]Record) (clean int64, records int) {
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length < payloadSize || length > maxFrame {
			return // corrupt length prefix
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return // corrupt payload
		}
		r := decodeRecord(payload)
		state[r.Lock] = r
		clean += frameHeader + int64(length)
		records++
	}
}
