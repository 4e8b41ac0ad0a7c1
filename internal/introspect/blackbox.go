package introspect

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// EventType classifies a flight-recorder event.
type EventType uint8

// Flight-recorder event types.
const (
	// EvGrant: a client request was granted at this node.
	EvGrant EventType = iota + 1
	// EvTokenHop: the lock's token was sent or delivered (From→To).
	EvTokenHop
	// EvRecovery: a recovery-protocol message (Kind: probe, claim or
	// recovered) was sent or delivered.
	EvRecovery
	// EvRoundStart / EvRoundDone: a token-regeneration round this node
	// runs as regenerator began / completed (Dur: round duration).
	EvRoundStart
	EvRoundDone
	// EvFsyncStall: a journal fsync exceeded the stall threshold (Dur:
	// the fsync's latency).
	EvFsyncStall
	// EvEvict: an idle-lock eviction sweep removed N entries.
	EvEvict
	// EvLockLost: a recovery reseed demolished a client hold.
	EvLockLost
	// EvViolation: the protocol auditor flagged an invariant breach.
	EvViolation
)

// String names the event type for dumps.
func (t EventType) String() string {
	switch t {
	case EvGrant:
		return "grant"
	case EvTokenHop:
		return "token_hop"
	case EvRecovery:
		return "recovery"
	case EvRoundStart:
		return "round_start"
	case EvRoundDone:
		return "round_done"
	case EvFsyncStall:
		return "fsync_stall"
	case EvEvict:
		return "evict_sweep"
	case EvLockLost:
		return "lock_lost"
	case EvViolation:
		return "violation"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Event is one flight-recorder entry. All fields are scalars so
// recording never allocates: the ring holds events by value and
// rendering to JSON happens only at dump time.
type Event struct {
	Seq   uint64
	Wall  int64 // wall-clock nanoseconds (time.Now().UnixNano())
	Type  EventType
	Node  proto.NodeID
	Lock  proto.LockID
	Mode  modes.Mode
	Kind  proto.Kind
	From  proto.NodeID
	To    proto.NodeID
	Epoch uint32
	Trace proto.TraceID
	Dur   time.Duration
	N     int
}

// Dump reasons (the blackbox_dumps_total label values and the dump
// file's reason field).
const (
	ReasonAuditViolation = "audit_violation"
	ReasonRecoveryRound  = "recovery_round"
	ReasonLockLost       = "lock_lost"
	// ReasonStall: the watchdog's verdict transitioned to stalled.
	ReasonStall  = "stall"
	ReasonManual = "manual"
)

// Reasons lists the dump triggers, for zero-pre-registration.
var Reasons = []string{ReasonAuditViolation, ReasonRecoveryRound, ReasonLockLost, ReasonStall, ReasonManual}

// Recorder is the black-box flight recorder: a bounded ring of
// structured protocol events that is always recording and dumps its
// contents to disk when something goes wrong (an audit violation, a
// recovery round, a lost lock), preserving the lead-up that the trace
// ring has usually rotated past by the time anyone looks.
//
// The recorder stages nothing itself. Whoever feeds Tap from a staging
// producer (a member's stripes hold client operations back and admit them
// to the trace recorder in batches) registers the producer's flush with
// OnRead: Snapshot and Stats run it first and so see every grant made so
// far. TriggerDump runs no hook — it fires inside taps, under the very
// mutexes a flush takes — and dumps what the ring holds.
//
// All methods are nil-safe: a member without a recorder attached pays
// only a nil check, keeping the hot path's zero-alloc guarantee when
// introspection is idle.
type Recorder struct {
	// epoch is the instant trace.Entry.At counts from, nil until SetEpoch.
	epoch atomic.Pointer[time.Time]

	mu     sync.Mutex
	onRead []func() // append-only: see OnRead
	ring   []Event
	next   int
	wrap   bool
	seq    uint64
	total  uint64

	dir         string
	minInterval time.Duration
	lastDump    map[string]time.Time
	dumps       map[string]uint64
	dumpErr     error

	node proto.NodeID
}

// NewRecorder creates a flight recorder retaining the last size events
// (default 4096 when size <= 0) for one node.
func NewRecorder(node proto.NodeID, size int) *Recorder {
	if size <= 0 {
		size = 4096
	}
	r := &Recorder{
		ring:     make([]Event, size),
		lastDump: make(map[string]time.Time),
		dumps:    make(map[string]uint64),
		node:     node,
	}
	for _, reason := range Reasons {
		r.dumps[reason] = 0
	}
	return r
}

// SetEpoch tells the recorder the instant trace entries' At offsets
// count from. Tap then stamps the events it derives from the entry's own
// At, without reading the clock, and a direct Record measures from the
// same instant, so every Wall is on one (monotonic) time line. Without
// it every event is stamped time.Now() when it is recorded. Nil-safe.
func (r *Recorder) SetEpoch(epoch time.Time) {
	if r == nil {
		return
	}
	r.epoch.Store(&epoch)
}

// wallAt returns the Wall stamp of an event that happened at offset at
// from the epoch (now, when no epoch is set).
func (r *Recorder) wallAt(at time.Duration) int64 {
	if epoch := r.epoch.Load(); epoch != nil {
		return epoch.UnixNano() + int64(at)
	}
	return time.Now().UnixNano()
}

// wallNow returns the Wall stamp of an event happening now.
func (r *Recorder) wallNow() int64 {
	if epoch := r.epoch.Load(); epoch != nil {
		return r.wallAt(time.Since(*epoch))
	}
	return time.Now().UnixNano()
}

// EnableAutoDump arranges for TriggerDump to write dump files under
// dir, at most one per reason per minInterval (default 5s when <= 0).
// The directory is created if missing.
func (r *Recorder) EnableAutoDump(dir string, minInterval time.Duration) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if minInterval <= 0 {
		minInterval = 5 * time.Second
	}
	r.mu.Lock()
	r.dir = dir
	r.minInterval = minInterval
	r.mu.Unlock()
	return nil
}

// OnRead registers a staging producer's flush hook: fn hands the trace
// recorder this one taps whatever the producer still holds. Snapshot and
// Stats run the hooks first, with no mutex of the recorder held. No-op on
// a nil recorder or nil fn.
func (r *Recorder) OnRead(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.onRead = append(r.onRead, fn)
	r.mu.Unlock()
}

// pull runs the OnRead hooks.
func (r *Recorder) pull() {
	r.mu.Lock()
	hooks := r.onRead
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Record appends one event to the ring. An event without a Wall stamp
// gets the current time. Nil-safe; never allocates.
func (r *Recorder) Record(e Event) {
	if r != nil {
		r.record(&e)
	}
}

// record is Record of an event the caller is done with (Tap's are built
// and stored with one copy each).
func (r *Recorder) record(e *Event) {
	if e.Wall == 0 {
		e.Wall = r.wallNow()
	}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.total++
	r.ring[r.next] = *e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrap = true
	}
	r.mu.Unlock()
}

// Tap adapts the recorder to the trace.Recorder tap signature,
// deriving flight-recorder events from the protocol trace stream:
// grants, token hops and recovery-message transitions. Everything else
// is filtered out before touching the ring. Events are stamped from the
// entry's own At when SetEpoch said what it counts from: a staging
// producer's entries arrive a batch at a time, after the fact.
func (r *Recorder) Tap(e trace.Entry) {
	if r == nil {
		return
	}
	switch e.Op {
	case trace.OpGranted:
		r.record(&Event{Wall: r.wallAt(e.At), Type: EvGrant, Node: e.Node, Lock: e.Lock, Mode: e.Mode, Trace: e.Trace})
	case trace.OpSend, trace.OpDeliver:
		switch e.Kind {
		case proto.KindToken:
			r.record(&Event{Wall: r.wallAt(e.At), Type: EvTokenHop, Node: e.Node, Lock: e.Lock,
				Kind: e.Kind, From: e.From, To: e.To, Epoch: e.Epoch})
		case proto.KindProbe, proto.KindClaim, proto.KindRecovered:
			r.record(&Event{Wall: r.wallAt(e.At), Type: EvRecovery, Node: e.Node, Lock: e.Lock,
				Kind: e.Kind, From: e.From, To: e.To, Epoch: e.Epoch})
		}
	}
}

// DumpEvent is one event rendered for a dump file or the
// /debug/blackbox endpoint.
type DumpEvent struct {
	Seq   uint64 `json:"seq"`
	At    string `json:"at"`
	Type  string `json:"type"`
	Node  int    `json:"node"`
	Lock  uint64 `json:"lock,omitempty"`
	Mode  string `json:"mode,omitempty"`
	Kind  string `json:"kind,omitempty"`
	From  int    `json:"from,omitempty"`
	To    int    `json:"to,omitempty"`
	Epoch uint32 `json:"epoch,omitempty"`
	Trace string `json:"trace,omitempty"`
	DurNS int64  `json:"dur_ns,omitempty"`
	N     int    `json:"n,omitempty"`
}

func renderEvent(e Event) DumpEvent {
	d := DumpEvent{
		Seq:   e.Seq,
		At:    time.Unix(0, e.Wall).UTC().Format(time.RFC3339Nano),
		Type:  e.Type.String(),
		Node:  int(e.Node),
		Lock:  uint64(e.Lock),
		Mode:  modeString(e.Mode),
		From:  int(e.From),
		To:    int(e.To),
		Epoch: e.Epoch,
		DurNS: int64(e.Dur),
		N:     e.N,
	}
	if e.Type == EvTokenHop || e.Type == EvRecovery {
		d.Kind = e.Kind.String()
	}
	if !e.Trace.IsZero() {
		d.Trace = e.Trace.String()
	}
	return d
}

// Snapshot returns the retained events in time order, newest last.
// n > 0 limits to the n most recent. Nil-safe.
func (r *Recorder) Snapshot(n int) []DumpEvent {
	if r == nil {
		return nil
	}
	r.pull()
	return r.snapshot(n)
}

// snapshot is Snapshot of what the ring holds now.
func (r *Recorder) snapshot(n int) []DumpEvent {
	r.mu.Lock()
	var events []Event
	if r.wrap {
		events = append(events, r.ring[r.next:]...)
		events = append(events, r.ring[:r.next]...)
	} else {
		events = append(events, r.ring[:r.next]...)
	}
	r.mu.Unlock()
	// Tapped grants reach the ring a batch at a time; Wall says when each
	// event happened (stable: same-instant events keep admission order).
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Wall, b.Wall) })
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	out := make([]DumpEvent, len(events))
	for i, e := range events {
		out[i] = renderEvent(e)
	}
	return out
}

// Stats is a snapshot of the recorder's counters.
type Stats struct {
	// Events counts events recorded since start (the ring retains the
	// most recent len(ring) of them).
	Events uint64
	// Dumps counts dump files written, by reason. Every known reason is
	// present (zero included) so metric pre-registration is complete.
	Dumps map[string]uint64
	// LastErr is the most recent dump-write failure, if any.
	LastErr error
}

// Stats returns the recorder's counters. Nil-safe.
func (r *Recorder) Stats() Stats {
	st := Stats{Dumps: make(map[string]uint64, len(Reasons))}
	for _, reason := range Reasons {
		st.Dumps[reason] = 0
	}
	if r == nil {
		return st
	}
	r.pull()
	r.mu.Lock()
	st.Events = r.total
	for reason, n := range r.dumps {
		st.Dumps[reason] = n
	}
	st.LastErr = r.dumpErr
	r.mu.Unlock()
	return st
}

// Dump is the JSON document a dump file holds.
type Dump struct {
	Node     int         `json:"node"`
	Reason   string      `json:"reason"`
	DumpedAt string      `json:"dumped_at"`
	Events   []DumpEvent `json:"events"`
}

// TriggerDump writes the ring's current contents to a dump file under
// the auto-dump directory, rate-limited per reason. Returns the file
// path, or "" when suppressed (no directory configured, or within the
// per-reason interval). Nil-safe. The write happens inline — dumps
// fire on exceptional paths (violations, recovery, lost locks), never
// on the grant hot path. No OnRead hook runs: the auditor calls this from
// inside a tap, with the producer's mutex held and perhaps a registry
// fold in progress, so a dump may lack the grants still staged (a reader
// that wants them in it reads Stats or Snapshot first).
func (r *Recorder) TriggerDump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	now := time.Now()
	r.mu.Lock()
	if r.dir == "" || (r.minInterval > 0 && now.Sub(r.lastDump[reason]) < r.minInterval) {
		r.mu.Unlock()
		return "", nil
	}
	r.lastDump[reason] = now
	dir := r.dir
	r.mu.Unlock()

	d := Dump{
		Node:     int(r.node),
		Reason:   reason,
		DumpedAt: now.UTC().Format(time.RFC3339Nano),
		Events:   r.snapshot(0),
	}
	name := fmt.Sprintf("%d-%s.json", now.UnixNano(), reason)
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(d, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	r.mu.Lock()
	if err != nil {
		r.dumpErr = err
	} else {
		r.dumps[reason]++
	}
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, nil
}

// DumpFile describes one dump on disk.
type DumpFile struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	MTime string `json:"mtime"`
}

// ListDumps enumerates the dump files under dir, oldest first. A
// missing directory is an empty list, not an error.
func ListDumps(dir string) ([]DumpFile, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []DumpFile
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, DumpFile{
			Name:  e.Name(),
			Size:  info.Size(),
			MTime: info.ModTime().UTC().Format(time.RFC3339),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReadDump loads one dump file by name. The name must be a bare file
// name from ListDumps — path separators are rejected so an HTTP
// retrieval endpoint can pass client input through safely.
func ReadDump(dir, name string) (Dump, error) {
	var d Dump
	if name != filepath.Base(name) || name == "." || name == "" {
		return d, fmt.Errorf("introspect: bad dump name %q", name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("introspect: dump %s: %w", name, err)
	}
	return d, nil
}
