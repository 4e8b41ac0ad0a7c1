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
// (a torn tail from a crash mid-write), keeping every record before
// it. Each record carries the complete per-lock state (last record
// wins), so replay is a single forward scan into a map and a snapshot
// is just the map re-encoded — the same framing, compacted.
//
// Fsync policy is the durability/throughput knob: FsyncAlways syncs
// inline on every append, FsyncBatched (the default) amortizes syncs
// on a background cadence, outside the append lock, FsyncNever leaves
// flushing to the OS.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
	FsyncBatched Policy = iota // group fsync on the batch cadence (default)
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
	// DefaultBatchInterval is the batched policy's fsync cadence: a crash
	// loses at most this window of appends plus one fsync's duration.
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
	WALBytes   int64         // current WAL file size
	WALRecords int           // records in the WAL since the last snapshot
	Fsyncs     uint64        // fsync calls issued
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
	walBytes   int64
	dirty      bool // unsynced appends (batched policy)
	closed     bool
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

// Open creates or reopens the journal in dir, replaying any existing
// snapshot and WAL into the in-memory state map. The directory is
// created if absent.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	state, err := Replay(dir)
	if err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	info, err := wal.Stat()
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:    dir,
		policy: opts.Fsync,
		batch:  opts.BatchInterval,
		snapEv: opts.SnapshotEvery,
		wal:    wal,
		state:  state,
		// The reopened WAL's records are already folded into state; an
		// exact count does not survive restarts, so approximate from size
		// to keep snapshot rotation armed.
		walRecords: int(info.Size() / (frameHeader + payloadSize)),
		walBytes:   info.Size(),
		done:       make(chan struct{}),
		wake:       make(chan struct{}, 1),
	}
	if j.batch <= 0 {
		j.batch = DefaultBatchInterval
	}
	if j.snapEv == 0 {
		j.snapEv = DefaultSnapshotEvery
	}
	if j.policy == FsyncBatched {
		j.wg.Add(1)
		go j.flusher()
	}
	return j, nil
}

// idleTicks is how many consecutive clean ticks send the flusher to
// sleep. Not one: a journal whose appends come in bursts a few intervals
// apart (a token that two clients fight over) would then sleep and be
// woken hundreds of times a second, each wake-up a goroutine hand-off on
// the append path — measured at 7 % of hot-key's throughput.
const idleTicks = 64

// flusher is the batched-policy background goroutine: it syncs dirty
// appends on the batch cadence so the grant path never blocks on the
// disk, amortizing one fsync over every append in the window. It sleeps
// until an append dirties a clean WAL, gives the batch one interval to
// fill, and syncs; while appends keep coming it ticks on, one interval
// from each fsync's start to the next, and idleTicks clean ticks in a row
// put it back to sleep — an idle journal wakes nobody. The fsync runs
// outside j.mu: an append that arrives meanwhile writes, marks the
// journal dirty again and is covered by the next tick.
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
			_ = j.fsync() // after Close this fails; Close synced already
			j.syncMu.Unlock()
		}
	}
}

// SetFsyncObserver installs fn to receive every subsequent fsync's
// latency (nil removes it). Settable after Open so hosts can attach
// telemetry later; safe for concurrent use.
func (j *Journal) SetFsyncObserver(fn func(time.Duration)) {
	if fn == nil {
		j.observeFsync.Store(nil)
		return
	}
	j.observeFsync.Store(&fn)
}

// fsync syncs the WAL, timing it. Callers hold j.syncMu.
func (j *Journal) fsync() error {
	start := time.Now()
	if err := j.wal.Sync(); err != nil {
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

// Append writes one record to the WAL and folds it into the state map.
// Under FsyncAlways the call returns only after the record is on
// stable storage; under FsyncBatched it returns after the buffered OS
// write and the background flusher syncs within one batch interval.
func (j *Journal) Append(r Record) error {
	var buf [frameHeader + payloadSize]byte
	binary.LittleEndian.PutUint32(buf[0:], payloadSize)
	r.encode(buf[frameHeader:])
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[frameHeader:]))

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if _, err := j.wal.Write(buf[:]); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.state[r.Lock] = r
	j.walRecords++
	j.walBytes += int64(len(buf))
	j.records.Add(1)
	switch j.policy {
	case FsyncAlways:
		_ = j.syncLocked() // surfaced via the next append's write error, if any
	case FsyncBatched:
		if !j.dirty {
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

// Sync forces any buffered appends to stable storage now, regardless
// of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	j.dirty = false
	if err := j.syncLocked(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Snapshot compacts the state map into the snapshot file and truncates
// the WAL, bounding the next replay to the live lock set.
func (j *Journal) Snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	return j.snapshotLocked()
}

// snapshotLocked writes every state-map record to a temporary file,
// fsyncs it, atomically renames it over the snapshot, then truncates
// the WAL. A crash at any point leaves either the old snapshot + full
// WAL or the new snapshot + (possibly still full) WAL — both replay to
// the same state because records are last-write-wins per lock and the
// snapshot holds exactly the fold of everything truncated.
func (j *Journal) snapshotLocked() error {
	tmp, err := os.CreateTemp(j.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	var buf [frameHeader + payloadSize]byte
	for _, r := range j.state {
		binary.LittleEndian.PutUint32(buf[0:], payloadSize)
		r.encode(buf[frameHeader:])
		binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[frameHeader:]))
		if _, err := tmp.Write(buf[:]); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: snapshot: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
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
	_ = j.fsync()
	if err := j.wal.Truncate(0); err != nil {
		return fmt.Errorf("journal: snapshot truncate: %w", err)
	}
	if _, err := j.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: snapshot seek: %w", err)
	}
	j.walRecords = 0
	j.walBytes = 0
	j.snapshots.Add(1)
	return nil
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	close(j.done)
	j.syncMu.Lock()
	err := j.wal.Sync()
	cerr := j.wal.Close()
	j.syncMu.Unlock()
	j.mu.Unlock()
	j.wg.Wait()
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close: %w", cerr)
	}
	return nil
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
	state := make(map[proto.LockID]Record)
	for _, name := range []string{snapName, walName} {
		f, err := os.Open(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("journal: replay: %w", err)
		}
		replayFile(f, state)
		f.Close()
	}
	return state, nil
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
// torn or corrupt frame.
func replayFile(f *os.File, state map[proto.LockID]Record) {
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
	}
}
