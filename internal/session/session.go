// Package session is lockd's client/session tier: it decouples lock
// lifetime from TCP connection lifetime so one cluster member can
// front many clients.
//
// Three mechanisms, layered on the member API:
//
//   - Named sessions with TTL leases. A client opens a session, holds
//     locks under it, and heartbeats (explicitly or by any command
//     activity). If the client dies, the lease sweeper force-releases
//     everything the session held — the client-side analogue of the
//     member-level crash recovery. If the client merely reconnects, it
//     re-adopts the live session and keeps its locks and handles.
//
//   - Fencing tokens. Every grant carries the member's FenceToken; the
//     session tier records it per held lock, so a storage system can
//     reject writes from a holder whose lease was reaped.
//
//   - Admission control. Every acquisition runs Member.Lock inline on
//     the client's goroutine, under the client's own deadline, and every
//     release is Unlock: the member's per-lock admission FIFO is the one
//     local queue, and its engine serves a queued remote request in turn.
//     Exclusive-mode (U, W) clients that hold nothing yet are counted per
//     (resource, mode); beyond MaxWaiters of them an acquisition fails
//     with ErrBusy. Shared modes (IR, R, IW) are not counted — the
//     member's shared-join fast path grants them with zero protocol
//     traffic.
package session

import (
	"errors"
	"log/slog"
	"sort"
	"sync"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
)

// Tier errors, surfaced verbatim to protocol clients.
var (
	// ErrBusy rejects an acquisition when the (resource, mode) pair
	// already has its configured cap of clients waiting.
	ErrBusy = errors.New("busy: admission queue full")
	// ErrExpired fails operations on a session whose lease was reaped.
	ErrExpired = errors.New("session expired")
	// ErrAttached refuses to adopt a session already attached to
	// another live connection.
	ErrAttached = errors.New("session attached to another connection")
	// ErrNotFound is returned for operations naming no live session.
	ErrNotFound = errors.New("session not found")
	// ErrNotHeld is returned when releasing a lock the session does not
	// hold.
	ErrNotHeld = errors.New("not held")
	// ErrClosed fails operations on a closed manager.
	ErrClosed = errors.New("session manager closed")
)

// Config parameterizes a Manager.
type Config struct {
	// DefaultTTL is the lease TTL for sessions that do not request one
	// (default 30s).
	DefaultTTL time.Duration
	// MaxTTL caps client-requested TTLs (default 10×DefaultTTL).
	MaxTTL time.Duration
	// MaxWaiters caps the exclusive-mode clients per (resource, mode)
	// that hold nothing yet; beyond it acquisitions fail with ErrBusy. 0
	// means unbounded.
	MaxWaiters int
	// SweepInterval is the lease sweeper's cadence (default
	// DefaultTTL/4, clamped to [10ms, 1s]).
	SweepInterval time.Duration
	// Registry receives the session/lease/admission metric families,
	// pre-registered at zero. Nil disables metrics.
	Registry *metrics.Registry
	// Logger receives session lifecycle logs. Nil disables logging.
	Logger *slog.Logger
	// Now is the clock (tests inject a fake one). Defaults to time.Now.
	Now func() time.Time
}

// Manager owns every session and the admission counts of one lockd.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	// waiting counts, per (resource, mode), the exclusive-mode clients
	// inside Acquire; a pair leaves the map when its count drops to 0.
	waiting map[qkey]int
	closed  bool

	done    chan struct{}
	sweepWG sync.WaitGroup

	// Cached metric handles (nil-safe without a registry).
	opened    *metrics.Counter
	adopted   *metrics.Counter
	expired   *metrics.Counter
	closedC   *metrics.Counter
	renewals  *metrics.Counter
	reaped    *metrics.Counter
	enqueued  *metrics.Counter
	leaderAcq *metrics.Counter
	busy      *metrics.Counter
}

// NewManager starts a manager and its lease sweeper.
func NewManager(cfg Config) *Manager {
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = 30 * time.Second
	}
	if cfg.MaxTTL <= 0 {
		cfg.MaxTTL = 10 * cfg.DefaultTTL
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.DefaultTTL / 4
		if cfg.SweepInterval < 10*time.Millisecond {
			cfg.SweepInterval = 10 * time.Millisecond
		}
		if cfg.SweepInterval > time.Second {
			cfg.SweepInterval = time.Second
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		waiting:  make(map[qkey]int),
		done:     make(chan struct{}),
	}
	if reg := cfg.Registry; reg != nil {
		m.opened = reg.Counter(metrics.MetricSessionsOpened,
			"Named client sessions created.", nil)
		m.adopted = reg.Counter(metrics.MetricSessionsAdopted,
			"Reconnections that re-adopted a live detached session.", nil)
		m.expired = reg.Counter(metrics.MetricSessionsExpired,
			"Sessions reaped by the lease sweeper.", nil)
		m.closedC = reg.Counter(metrics.MetricSessionsClosed,
			"Sessions closed explicitly by clients.", nil)
		m.renewals = reg.Counter(metrics.MetricSessionRenewals,
			"Session lease renewals (explicit and activity-based).", nil)
		m.reaped = reg.Counter(metrics.MetricSessionLocksReaped,
			"Locks force-released because their session's lease expired.", nil)
		m.enqueued = reg.Counter(metrics.MetricAdmissionEnqueued,
			"Exclusive-mode client acquisitions admitted under the waiter cap.", nil)
		m.leaderAcq = reg.Counter(metrics.MetricAdmissionLeaderAcquires,
			"Member-level exclusive-mode acquisitions made for clients.", nil)
		m.busy = reg.Counter(metrics.MetricAdmissionBusy,
			"Acquisitions rejected at the waiter cap.", nil)
		reg.Collect(metrics.MetricSessionsOpen,
			"Named client sessions currently live.", "gauge",
			func(emit func(metrics.Labels, float64)) {
				m.mu.Lock()
				n := len(m.sessions)
				m.mu.Unlock()
				emit(nil, float64(n))
			})
		reg.Collect(metrics.MetricAdmissionWaiting,
			"Exclusive-mode clients waiting for a lock and holding nothing yet.", "gauge",
			func(emit func(metrics.Labels, float64)) {
				m.mu.Lock()
				n := 0
				for _, c := range m.waiting {
					n += c
				}
				m.mu.Unlock()
				emit(nil, float64(n))
			})
	}
	m.sweepWG.Add(1)
	go m.sweeper()
	return m
}

// Close stops the sweeper and force-releases every session's locks.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.done)
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.sessions = map[string]*Session{}
	m.mu.Unlock()
	m.sweepWG.Wait()
	for _, s := range sessions {
		s.expire()
	}
}

// Anonymous creates the implicit connection-scoped session every client
// starts with: no name, no lease — its locks die with the connection.
func (m *Manager) Anonymous() *Session {
	return &Session{mgr: m, held: make(map[string]*Held)}
}

// Open creates the named session, or re-adopts it if it is live and
// detached. The returned bool reports adoption. TTL 0 uses the default;
// requests beyond MaxTTL are clamped.
func (m *Manager) Open(name string, ttl time.Duration) (*Session, bool, error) {
	if ttl <= 0 {
		ttl = m.cfg.DefaultTTL
	}
	if ttl > m.cfg.MaxTTL {
		ttl = m.cfg.MaxTTL
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrClosed
	}
	if s := m.sessions[name]; s != nil {
		m.mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.gone {
			// Reaped between the map lookup and here; treat as absent
			// by falling through to a fresh create on retry.
			return nil, false, ErrExpired
		}
		if s.attached {
			return nil, false, ErrAttached
		}
		s.attached = true
		s.ttl = ttl
		s.deadline = m.cfg.Now().Add(ttl)
		m.adopted.Inc()
		m.logf("session adopted", "session", name, "locks", len(s.held))
		return s, true, nil
	}
	s := &Session{
		mgr:      m,
		name:     name,
		ttl:      ttl,
		deadline: m.cfg.Now().Add(ttl),
		attached: true,
		held:     make(map[string]*Held),
	}
	m.sessions[name] = s
	m.mu.Unlock()
	m.opened.Inc()
	m.logf("session opened", "session", name, "ttl", ttl)
	return s, false, nil
}

// Detach is the connection-drop path: an anonymous session releases
// everything; a named one gets a final implicit renewal and keeps its
// lease ticking so the client can reconnect and re-adopt.
func (m *Manager) Detach(s *Session) {
	s.mu.Lock()
	if s.name == "" || s.gone {
		s.mu.Unlock()
		s.ReleaseAll()
		return
	}
	s.attached = false
	s.deadline = m.cfg.Now().Add(s.ttl)
	s.mu.Unlock()
	m.logf("session detached", "session", s.name)
}

// CloseSession explicitly ends a named session, releasing its locks.
// It returns the number of locks released.
func (m *Manager) CloseSession(s *Session) int {
	m.mu.Lock()
	if m.sessions[s.name] == s {
		delete(m.sessions, s.name)
	}
	m.mu.Unlock()
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return 0
	}
	s.gone = true
	s.mu.Unlock()
	m.closedC.Inc()
	n := s.ReleaseAll()
	m.logf("session closed", "session", s.name, "released", n)
	return n
}

// sweeper reaps expired leases.
func (m *Manager) sweeper() {
	defer m.sweepWG.Done()
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
			m.sweep()
		}
	}
}

// sweep reaps every named session whose lease deadline passed.
func (m *Manager) sweep() {
	now := m.cfg.Now()
	m.mu.Lock()
	var dead []*Session
	for name, s := range m.sessions {
		s.mu.Lock()
		expired := now.After(s.deadline)
		s.mu.Unlock()
		if expired {
			dead = append(dead, s)
			delete(m.sessions, name)
		}
	}
	m.mu.Unlock()
	for _, s := range dead {
		m.expired.Inc()
		n := s.expire()
		m.reaped.Add(uint64(n))
		m.logf("session lease expired", "session", s.name, "reaped", n)
	}
}

func (m *Manager) logf(msg string, kv ...any) {
	if lg := m.cfg.Logger; lg != nil {
		lg.Info(msg, kv...)
	}
}

// Held is one lock a session holds: the protocol-level key, the handle
// metadata, and the handle, through which the session releases it.
type Held struct {
	// Key is the session-scoped name: the resource for plain locks,
	// "path:<segments>" for path locks, "set:<resources>" for sets.
	Key string
	// Mode is the granted mode ("" for sets, which hold one mode per
	// member lock but no single handle mode).
	Mode string
	// Fence is the grant's fencing token; HasFence distinguishes a
	// genuine zero token from "not applicable" (sets).
	Fence    hierlock.FenceToken
	HasFence bool
	// Handle is the underlying lock handle (*hierlock.Lock, *PathLock
	// or *LockSet): released through its Unlock, and open to operations
	// beyond release, e.g. UPGRADE.
	Handle Handle
}

// Handle is what a session holds a lock through: *hierlock.Lock,
// *hierlock.PathLock and *hierlock.LockSet all are.
type Handle interface {
	Unlock() error
}

// NewHeld builds a Held entry.
func NewHeld(key, mode string, fence hierlock.FenceToken, hasFence bool, handle Handle) *Held {
	return &Held{Key: key, Mode: mode, Fence: fence, HasFence: hasFence, Handle: handle}
}

// Session is one client's lock namespace. An anonymous session (name
// "") is connection-scoped with no lease; a named one outlives its
// connection until the lease expires or it is closed.
type Session struct {
	mgr  *Manager
	name string

	mu       sync.Mutex
	ttl      time.Duration
	deadline time.Time
	attached bool
	// gone marks a dead session (expired, closed, or manager
	// shutdown): held is drained and further AddHeld calls fail so a
	// grant landing after the reaper ran is released, not leaked.
	gone bool
	held map[string]*Held
}

// Name returns the session name ("" for anonymous).
func (s *Session) Name() string { return s.name }

// Named reports whether the session has a lease.
func (s *Session) Named() bool { return s.name != "" }

// Expired reports whether the session is gone (reaped or closed).
func (s *Session) Expired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gone
}

// TTL returns the session's lease TTL (0 for anonymous).
func (s *Session) TTL() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ttl
}

// Renew resets the lease deadline, returning the remaining TTL.
func (s *Session) Renew() (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return 0, ErrExpired
	}
	if s.name == "" {
		return 0, ErrNotFound
	}
	s.deadline = s.mgr.cfg.Now().Add(s.ttl)
	s.mgr.renewals.Inc()
	return s.ttl, nil
}

// Touch is the activity-based implicit renewal: any protocol command on
// an attached named session counts as a heartbeat.
func (s *Session) Touch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone || s.name == "" {
		return
	}
	s.deadline = s.mgr.cfg.Now().Add(s.ttl)
}

// AddHeld records a granted lock. It fails with ErrExpired if the
// session died while the grant was in flight — the caller must then
// release the lock immediately.
func (s *Session) AddHeld(h *Held) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return ErrExpired
	}
	s.held[h.Key] = h
	return nil
}

// Get looks up a held entry by key.
func (s *Session) Get(key string) (*Held, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.held[key]
	return h, ok
}

// Len returns the number of held entries.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held)
}

// List snapshots the held entries, sorted by key.
func (s *Session) List() []*Held {
	s.mu.Lock()
	out := make([]*Held, 0, len(s.held))
	for _, h := range s.held {
		out = append(out, h)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Release releases one held lock by key. The entry leaves the session
// map only when the release actually disposed of the handle: on
// success, or on errors that mean the handle is already dead
// (ErrReleased, ErrLockLost). Any other failure re-inserts the entry so
// the session's eventual teardown releases it — a failed UNLOCK must
// not leak the lock past releaseAll.
func (s *Session) Release(key string) error {
	s.mu.Lock()
	h, ok := s.held[key]
	if !ok {
		s.mu.Unlock()
		return ErrNotHeld
	}
	delete(s.held, key)
	s.mu.Unlock()
	if err := h.Handle.Unlock(); err != nil {
		if !errors.Is(err, hierlock.ErrReleased) && !errors.Is(err, hierlock.ErrLockLost) {
			s.mu.Lock()
			if !s.gone {
				s.held[h.Key] = h // not key: the caller's key does not escape
			}
			s.mu.Unlock()
		}
		return err
	}
	return nil
}

// ReleaseAll releases every held lock, returning the number of entries
// drained. Releases run outside the session mutex (they may run the
// member protocol).
func (s *Session) ReleaseAll() int {
	s.mu.Lock()
	held := s.held
	s.held = make(map[string]*Held)
	s.mu.Unlock()
	for _, h := range held {
		_ = h.Handle.Unlock()
	}
	return len(held)
}

// expire marks the session dead and drains its locks.
func (s *Session) expire() int {
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return 0
	}
	s.gone = true
	s.mu.Unlock()
	return s.ReleaseAll()
}

// HeldInfo is one held lock in a session snapshot.
type HeldInfo struct {
	Key   string
	Mode  string
	Fence string
}

// Info is one session in a manager snapshot.
type Info struct {
	Name      string
	Attached  bool
	TTL       time.Duration
	ExpiresIn time.Duration
	Locks     []HeldInfo
}

// Snapshot lists the manager's named sessions for introspection,
// sorted by name.
func (m *Manager) Snapshot() []Info {
	now := m.cfg.Now()
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		info := Info{
			Name:      s.name,
			Attached:  s.attached,
			TTL:       s.ttl,
			ExpiresIn: s.deadline.Sub(now),
		}
		for _, h := range s.held {
			hi := HeldInfo{Key: h.Key, Mode: h.Mode}
			if h.HasFence {
				hi.Fence = h.Fence.String()
			}
			info.Locks = append(info.Locks, hi)
		}
		s.mu.Unlock()
		sort.Slice(info.Locks, func(i, j int) bool {
			return info.Locks[i].Key < info.Locks[j].Key
		})
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
