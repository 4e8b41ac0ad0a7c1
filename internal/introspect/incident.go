package introspect

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hierlock/internal/profile"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
)

// Incident reasons: the hierlock_incidents_total label values and the
// suffix of an incident's directory name.
const (
	ReasonAuditViolation = "audit_violation"
	ReasonRecoveryRound  = "recovery_round"
	ReasonLockLost       = "lock_lost"
	// ReasonStall: the watchdog's verdict transitioned to stalled.
	ReasonStall  = "stall"
	ReasonManual = "manual"
)

// Reasons lists the incident triggers, for zero-pre-registration.
var Reasons = []string{ReasonAuditViolation, ReasonRecoveryRound, ReasonLockLost, ReasonStall, ReasonManual}

// Recorder writes incidents. An incident is one directory,
// <dir>/<unixnano>-<reason>, holding what its node held when something
// went wrong:
//
//	trace.json   the trace ring, in /debug/trace's JSON
//	locks.json   the lock inventory (/debug/locks without the sessions)
//	health.json  the stall watchdog's input sample
//	<kind>.pprof every runtime profile, for a stall or a manual incident
//
// The trace ring keeps what the incident is about: grants, messages and
// the node events (round transitions, fsync stalls, eviction sweeps, lost
// holds, see trace.Op). The recorder keeps no events of its own.
//
// All methods are nil-safe: a member without a recorder pays a nil check
// per exceptional event.
type Recorder struct {
	node proto.NodeID
	src  atomic.Pointer[Source] // nil until Follow

	mu          sync.Mutex
	dir         string
	minInterval time.Duration
	last        map[string]time.Time // per reason: the rate limiter
	written     map[string]uint64
	lastErr     error
	closed      bool
	stop        chan struct{} // closed by Close: ends a CPU profile early
	wg          sync.WaitGroup
}

// Source is the node an incident is taken of.
type Source struct {
	// Trace is the node's trace ring.
	Trace *trace.Recorder
	// Locks and Health, when set, give the node's lock inventory and health
	// sample. They take every stripe mutex of the member, which whoever
	// triggers an incident may hold, so they run on the incident's own
	// goroutine.
	Locks  func() NodeInventory
	Health func() watchdog.Sample
}

// NewRecorder creates an incident recorder for node. It writes nothing
// until EnableAutoDump names its directory.
//
// Deprecated: size is ignored; the benchmark PR (ROADMAP item 1) drops it.
func NewRecorder(node proto.NodeID, size int) *Recorder {
	return &Recorder{
		node:    node,
		last:    make(map[string]time.Time),
		written: make(map[string]uint64),
		stop:    make(chan struct{}),
	}
}

// Follow makes s the node incidents are taken of; a later call replaces
// it. Nil-safe.
func (r *Recorder) Follow(s Source) {
	if r != nil {
		r.src.Store(&s)
	}
}

// Tap does nothing: incidents copy the trace ring itself.
//
// Deprecated: the benchmark PR (ROADMAP item 1) deletes it with its call.
func (r *Recorder) Tap([]trace.Entry) {}

// EnableAutoDump makes TriggerDump write incidents under dir, at most one
// per reason per minInterval (default 5s when <= 0). The directory is
// created if missing.
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
	r.dir, r.minInterval = dir, minInterval
	r.mu.Unlock()
	return nil
}

// Dir returns the incident directory ("" when none is set).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dir
}

// TriggerDump starts an incident and returns its directory, or "" when
// it is suppressed: no directory set, the recorder closed, or the same
// reason within the interval. It copies the trace ring (Live) on the
// calling goroutine and pulls nothing, because it fires inside taps
// (the auditor's OnViolation) and under stripe mutexes: a caller that
// wants the entries a producer still stages pulls first. The other files
// are written on a goroutine of its own into a hidden directory, which is
// renamed to the returned path once complete.
func (r *Recorder) TriggerDump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	now := time.Now()
	r.mu.Lock()
	if r.dir == "" || r.closed || now.Sub(r.last[reason]) < r.minInterval {
		r.mu.Unlock()
		return "", nil
	}
	r.last[reason] = now
	name := fmt.Sprintf("%d-%s", now.UnixNano(), reason)
	tmp, final := filepath.Join(r.dir, "."+name), filepath.Join(r.dir, name)
	if err := os.Mkdir(tmp, 0o755); err != nil {
		r.lastErr = err
		r.mu.Unlock()
		return "", err
	}
	r.wg.Add(1)
	r.mu.Unlock()

	src := r.src.Load()
	if src == nil {
		src = &Source{}
	}
	d := trace.Dump{Node: r.node, Enabled: true, Entries: src.Trace.Live()}
	go r.write(tmp, final, reason, d, src)
	return final, nil
}

// write finishes the incident TriggerDump started in tmp and renames it
// to final.
func (r *Recorder) write(tmp, final, reason string, d trace.Dump, src *Source) {
	defer r.wg.Done()
	// Staged entries reach the ring a batch at a time; At says when each
	// happened, as in /debug/trace.
	slices.SortStableFunc(d.Entries, func(a, b trace.Entry) int { return cmp.Compare(a.At, b.At) })
	errs := []error{writeJSON(filepath.Join(tmp, "trace.json"), d)}
	if src.Locks != nil {
		errs = append(errs, writeJSON(filepath.Join(tmp, "locks.json"), src.Locks()))
	}
	if src.Health != nil {
		errs = append(errs, writeJSON(filepath.Join(tmp, "health.json"), src.Health()))
	}
	if reason == ReasonStall || reason == ReasonManual {
		errs = append(errs, profile.WriteAll(tmp, r.stop))
	}
	renamed := os.Rename(tmp, final)
	err := errors.Join(append(errs, renamed)...)
	r.mu.Lock()
	if renamed == nil {
		r.written[reason]++
	}
	if err != nil {
		r.lastErr = fmt.Errorf("incident %s: %w", filepath.Base(final), err)
	}
	r.mu.Unlock()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Close stops the recorder: TriggerDump starts no incident from now on, a
// CPU profile being sampled ends early, and Close returns once every
// incident in flight is on disk. Nil-safe; idempotent.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.stop)
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// Stats is a snapshot of the recorder's counters.
type Stats struct {
	// Written counts the incidents written, by reason. Every reason is
	// present (zero included) so metric pre-registration is complete.
	Written map[string]uint64
	// LastErr is the most recent incident-write failure, if any.
	LastErr error
}

// Stats returns the recorder's counters. Nil-safe.
func (r *Recorder) Stats() Stats {
	st := Stats{Written: make(map[string]uint64, len(Reasons))}
	for _, reason := range Reasons {
		st.Written[reason] = 0
	}
	if r == nil {
		return st
	}
	r.mu.Lock()
	for reason, n := range r.written {
		st.Written[reason] = n
	}
	st.LastErr = r.lastErr
	r.mu.Unlock()
	return st
}

// Incident is one incident on disk: its directory's name and the files
// in it.
type Incident struct {
	Name  string   `json:"name"`
	Files []string `json:"files"`
}

// List returns the complete incidents on disk, oldest first. Nil-safe;
// no directory is an empty list.
func (r *Recorder) List() ([]Incident, error) {
	dir := r.Dir()
	if dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Incident
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		inc := Incident{Name: e.Name()}
		for _, f := range files {
			inc.Files = append(inc.Files, f.Name())
		}
		out = append(out, inc)
	}
	return out, nil // ReadDir sorts by name, and a name starts with its time
}

// Read returns one file of one incident. Both must be bare names, as
// List gives them: a path separator or a leading dot is rejected, so an
// HTTP endpoint can pass client input through.
func (r *Recorder) Read(incident, file string) ([]byte, error) {
	dir := r.Dir()
	for _, name := range []string{incident, file} {
		if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
			return nil, fmt.Errorf("introspect: bad incident file name %q", name)
		}
	}
	if dir == "" {
		return nil, errors.New("introspect: no incident directory")
	}
	return os.ReadFile(filepath.Join(dir, incident, file))
}
