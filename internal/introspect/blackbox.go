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

// Flight-recorder event types. The first three are read from the followed
// trace ring (see Follow); the rest the recorder's owner records.
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
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Event is one flight-recorder entry. All fields are scalars so
// recording never allocates: the ring holds events by value and
// rendering to JSON happens only at dump time.
type Event struct {
	// Seq is the recorder's own count for an event it recorded, the trace
	// entry's Seq for one read from the trace ring.
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

// Recorder is the black-box flight recorder: structured protocol events,
// always recording, dumped to disk when something goes wrong (an audit
// violation, a recovery round, a lost lock), preserving the lead-up that
// the trace ring has usually rotated past by the time anyone looks.
//
// Grants, token hops and recovery messages are the trace ring's: the
// recorder derives them from the ring it follows (Follow) when it is
// read, and its own bounded ring holds only what that ring lacks — round
// transitions, fsync stalls, eviction sweeps, lost holds — written through
// by Record. Snapshot pulls the trace ring first (trace.Recorder.Pull), so
// it sees every grant made so far; TriggerDump does not — it fires inside
// taps, under the very mutexes a pull takes — and dumps what the ring
// holds, which includes the batch the tap is being shown.
//
// All methods are nil-safe: a member without a recorder attached pays
// only a nil check, keeping the hot path's zero-alloc guarantee when
// introspection is idle.
type Recorder struct {
	src atomic.Pointer[source] // nil until Follow

	mu   sync.Mutex
	ring []Event
	next int
	wrap bool
	seq  uint64 // events recorded since start

	dir         string
	minInterval time.Duration
	lastDump    map[string]time.Time
	dumps       map[string]uint64
	dumpErr     error

	node proto.NodeID
}

// source is the trace ring a recorder follows and the instant its
// entries' At counts from.
type source struct {
	rec   *trace.Recorder
	epoch time.Time
}

// wall returns the Wall stamp of what happened at offset at from the
// epoch: one monotonic time line for the ring's events and the recorder's.
func (s *source) wall(at time.Duration) int64 { return s.epoch.UnixNano() + int64(at) }

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

// Follow makes rec the trace ring the recorder reads grants, token hops
// and recovery messages from, and epoch the instant rec's entries' At
// counts from; Record then stamps on the same time line. A later call
// re-points the recorder (recorders are followed one at a time); a nil
// rec leaves it the events it records itself. Nil-safe.
func (r *Recorder) Follow(rec *trace.Recorder, epoch time.Time) {
	if r != nil {
		r.src.Store(&source{rec, epoch})
	}
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

// Record appends one event to the recorder's own ring. An event without a
// Wall stamp gets the current time. Nil-safe; never allocates.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.Wall == 0 {
		e.Wall = time.Now().UnixNano()
		if s := r.src.Load(); s != nil {
			e.Wall = s.wall(time.Since(s.epoch))
		}
	}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrap = true
	}
	r.mu.Unlock()
}

// Tap does nothing: the recorder reads the trace ring it follows instead.
//
// Deprecated: use Follow. Tap is removed when the benchmark harness stops
// calling it.
func (r *Recorder) Tap(trace.Entry) {}

// derive returns the events the recorder reads from trace entries es:
// grants, token hops and recovery-message transitions. Nothing else in the
// trace is kept.
func (s *source) derive(es []trace.Entry) []Event {
	var evs []Event
	for _, e := range es {
		ev := Event{Seq: e.Seq, Wall: s.wall(e.At), Node: e.Node, Lock: e.Lock}
		switch {
		case e.Op == trace.OpGranted:
			ev.Type, ev.Mode, ev.Trace = EvGrant, e.Mode, e.Trace
		case e.Op != trace.OpSend && e.Op != trace.OpDeliver:
			continue
		case e.Kind == proto.KindToken:
			ev.Type = EvTokenHop
		case e.Kind == proto.KindProbe, e.Kind == proto.KindClaim, e.Kind == proto.KindRecovered:
			ev.Type = EvRecovery
		default:
			continue
		}
		if ev.Type != EvGrant {
			ev.Kind, ev.From, ev.To, ev.Epoch = e.Kind, e.From, e.To, e.Epoch
		}
		evs = append(evs, ev)
	}
	return evs
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

// Snapshot returns the retained events — the followed trace ring's, after
// a pull, and the recorder's own — in time order, newest last. n > 0
// limits to the n most recent. Nil-safe.
func (r *Recorder) Snapshot(n int) []DumpEvent {
	if r == nil {
		return nil
	}
	if s := r.src.Load(); s != nil {
		s.rec.Pull()
	}
	return r.snapshot(n)
}

// snapshot is Snapshot of what the two rings hold now. It takes no mutex
// but theirs.
func (r *Recorder) snapshot(n int) []DumpEvent {
	var events []Event
	if s := r.src.Load(); s != nil {
		events = s.derive(s.rec.Live())
	}
	r.mu.Lock()
	if r.wrap {
		events = append(events, r.ring[r.next:]...)
	}
	events = append(events, r.ring[:r.next]...)
	r.mu.Unlock()
	// Staged entries reach the trace ring a batch at a time; Wall says when
	// each event happened (stable: same-instant events keep ring order).
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
	// Events counts the events Record wrote since start (the recorder's
	// own ring retains the most recent of them); the trace ring's are not
	// counted here.
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
	r.mu.Lock()
	st.Events = r.seq
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

// TriggerDump writes what the rings hold now to a dump file under the
// auto-dump directory, rate-limited per reason. Returns the file path, or
// "" when suppressed (no directory configured, or within the per-reason
// interval). Nil-safe. The write happens inline — dumps fire on
// exceptional paths (violations, recovery, lost locks), never on the
// grant hot path. The trace ring is not pulled: the auditor calls this
// from inside a tap, with the producer's mutex held and perhaps a registry
// fold in progress, so a dump holds the batch the tap is being shown but
// may lack grants still staged elsewhere (a caller that wants them in it
// pulls the trace ring first).
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
