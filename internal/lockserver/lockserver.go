// Package lockserver implements lockd's client-facing front end: a
// line-oriented text protocol over TCP through which applications
// acquire, upgrade and release hierarchical locks owned by the local
// cluster member.
//
// Commands (case-insensitive, space-separated):
//
//	LOCK <resource> <mode>        modes: IR R U IW W
//	UNLOCK <resource>
//	UPGRADE <resource>            requires holding U
//	LOCKPATH <mode> <seg>...      hierarchy: intent on ancestors, mode on leaf
//	UNLOCKPATH <seg>...
//	LOCKALL <mode> <resource>...  deadlock-free multi-resource acquisition
//	UNLOCKALL <resource>...
//	SESSION OPEN <name> [ttl]     lease-backed session (re-adopts if live)
//	SESSION RENEW                 heartbeat: reset the lease deadline
//	SESSION CLOSE                 end the session, releasing its locks
//	SESSIONS                      list this lockd's named sessions
//	HELD                          list locks held by this session
//	PEERS                         per-peer link health and queue depth
//	MEMBER LIST                   this member's view of the cluster
//	MEMBER ADD <seed-addr>        join a running cluster via the seed's peer address
//	MEMBER REMOVE                 gracefully leave the cluster (hand off tokens)
//	QUIT
//
// Replies are single lines starting with "OK" or "ERR". The commands of
// one connection execute, and are answered, in the order they were sent,
// one at a time. A client need not wait for a reply before it sends the
// next command: lines that arrive together are answered together — the
// server writes once it has no complete line left to read — so "UNLOCK a"
// and "LOCK b W" sent in one write release a and then acquire b in one
// round trip, their two replies arriving in one read. A reply is never
// held back while the server waits for input.
//
// # Sessions and leases
//
// A fresh connection starts with an implicit anonymous session: its
// locks die with the connection, exactly the pre-session contract.
// SESSION OPEN upgrades it to a named session with a TTL lease. A named
// session's locks survive disconnects: the client may reconnect and
// SESSION OPEN the same name to re-adopt them (the reply carries
// adopted=true and the surviving lock count). The lease is renewed by
// SESSION RENEW and implicitly by any command activity; when it expires
// — the client died — the lease sweeper force-releases everything the
// session held, within one sweep interval (at most 2×TTL end to end).
// Commands on an expired session answer "ERR session expired" and the
// connection falls back to a fresh anonymous session.
//
// # Fencing tokens
//
// Every LOCK, LOCKPATH and UPGRADE grant carries fence=<epoch.seq>, a
// token that strictly increases across conflicting grants of the same
// resource: within a recovery epoch by Lamport-clock causality, across
// epochs because recovery bumps the epoch. A client passes the token to
// downstream systems with its writes; a holder whose lease was reaped
// (or whose lock was demolished by crash recovery) always carries a
// smaller token than the current holder, so stale writes can be
// rejected. LOCKALL sets carry no single token (one hold per member
// lock); use LOCK/LOCKPATH when fencing matters.
//
// # Wait-queue admission
//
// Every LOCK calls Member.Lock on the connection's goroutine, bounded by
// Server.Timeout, and every UNLOCK calls Unlock. Local clients of one
// lock wait in the member's FIFO admission queue, one operation at a
// time; every release goes through the protocol engine, which serves a
// request queued from another member in its turn, so local clients
// cannot pass a lock among themselves while a remote writer waits. A
// client whose timeout expires while it is queued answers ERR and the
// slot passes on. Beyond Server.MaxWaiters exclusive-mode (U, W) clients
// per (resource, mode) that hold nothing yet, LOCK answers "ERR busy";
// shared modes (IR, R, IW) are not counted — the member's shared-join
// fast path grants them with zero protocol traffic.
package lockserver

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hierlock"
	"hierlock/internal/audit"
	"hierlock/internal/introspect"
	"hierlock/internal/metrics"
	"hierlock/internal/session"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
)

// maxLine bounds one protocol line. Longer lines are consumed and
// answered with "ERR line too long" instead of killing the connection.
const maxLine = 1 << 20

var errLineTooLong = errors.New("line too long")

// Server serves the text protocol on behalf of one cluster member.
type Server struct {
	member *hierlock.Member
	// Timeout bounds each LOCK wait (0 = wait forever).
	Timeout time.Duration
	// LeaseTTL is the default session lease TTL (0 = 30s).
	LeaseTTL time.Duration
	// MaxWaiters caps the exclusive-mode clients per (resource, mode)
	// that hold nothing yet; beyond it LOCK answers ERR busy (0 =
	// unbounded).
	MaxWaiters int
	// SweepInterval overrides the lease sweeper cadence (0 = LeaseTTL/4).
	SweepInterval time.Duration
	// Registry, when non-nil, is served as Prometheus text exposition on
	// the debug handler's /metrics endpoint.
	Registry *metrics.Registry
	// Trace, when non-nil, is dumped as JSON on the debug handler's
	// /debug/trace endpoint and togglable at runtime.
	Trace *trace.Recorder
	// Audit, when non-nil, is reported on the debug handler's /debug/audit
	// endpoint (invariant violation counts and recent violations).
	Audit *audit.Auditor
	// Incidents, when non-nil, serves the incidents written under its
	// directory on /debug/incidents, and takes manual ones.
	Incidents *introspect.Recorder
	// Health, when non-nil, drives /healthz beyond the bare
	// protocol-failure check and serves the watchdog's full verdict on
	// /debug/health.
	Health *watchdog.Runner

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[io.Closer]struct{}
	sess   *session.Manager
	wg     sync.WaitGroup
}

// New creates a server for the member.
func New(m *hierlock.Member) *Server {
	return &Server{member: m}
}

// Sessions returns the server's session manager, creating it on first
// use (so LeaseTTL/MaxWaiters/Registry set after New still apply).
func (s *Server) Sessions() *session.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess == nil {
		s.sess = session.NewManager(session.Config{
			DefaultTTL:    s.LeaseTTL,
			MaxWaiters:    s.MaxWaiters,
			SweepInterval: s.SweepInterval,
			Registry:      s.Registry,
		})
	}
	return s.sess
}

// Serve accepts client connections on ln until the listener closes or
// Close is called. It always returns a non-nil error (net.ErrClosed
// after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			s.wg.Wait()
			return net.ErrClosed
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Close stops accepting, closes every live client connection (so
// sessions blocked reading idle peers drain and Serve can return), and
// shuts the session manager down, releasing all session-held locks.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]io.Closer, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	sess := s.sess
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	if sess != nil {
		sess.Close()
	}
	return err
}

// ServeConn runs one client session; it returns when the peer closes,
// QUITs, or the server shuts down. An anonymous session's locks are
// released on return; a named session is detached, its lease ticking
// until re-adoption or expiry.
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	if s.conns == nil {
		s.conns = make(map[io.Closer]struct{})
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	defer conn.Close()

	mgr := s.Sessions()
	se := &connState{srv: s, mgr: mgr, sess: mgr.Anonymous()}
	defer func() { se.mgr.Detach(se.sess) }()

	br := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := readLine(br)
		var resp string
		var quit bool
		switch err {
		case nil:
			resp, quit = se.handle(line)
		case errLineTooLong:
			resp = "ERR line too long"
		default:
			return
		}
		// A failed write is remembered by w and reported by Flush.
		_, _ = w.WriteString(resp)
		_ = w.WriteByte('\n')
		// Pipelined lines share one write: the replies go out once the next
		// read would have to wait for the client. Until then they are behind
		// a complete line, which readLine returns without touching conn, so
		// no way out of the loop leaves a reply unwritten.
		if quit || !lineBuffered(br) {
			if w.Flush() != nil || quit {
				return
			}
		}
	}
}

// lineBuffered reports whether br holds a complete line already read
// from the connection.
func lineBuffered(br *bufio.Reader) bool {
	buf, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// readLine reads one newline-terminated line of at most maxLine bytes.
// Longer lines are consumed to their newline and reported as
// errLineTooLong, leaving the stream usable. A final unterminated line
// before EOF is returned as a line.
func readLine(br *bufio.Reader) (string, error) {
	var buf []byte
	overflow := false
	for {
		frag, err := br.ReadSlice('\n')
		if !overflow {
			buf = append(buf, frag...)
			if len(buf) > maxLine {
				overflow = true
				buf = nil
			}
		}
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil:
			if overflow {
				return "", errLineTooLong
			}
			return strings.TrimRight(string(buf), "\r\n"), nil
		default:
			if err == io.EOF && !overflow && len(buf) > 0 {
				return strings.TrimRight(string(buf), "\r\n"), nil
			}
			return "", err
		}
	}
}

// connState binds one client connection to its current session.
type connState struct {
	srv  *Server
	mgr  *session.Manager
	sess *session.Session
}

// handle executes one command line and returns the reply plus whether
// the session should end.
func (se *connState) handle(line string) (string, bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command", false
	}
	// A reaped session answers one "ERR session expired" and the
	// connection falls back to a fresh anonymous session; any command
	// on a live named session counts as a heartbeat.
	if se.sess.Named() && se.sess.Expired() {
		se.sess = se.mgr.Anonymous()
		return "ERR session expired", false
	}
	se.sess.Touch()
	switch strings.ToUpper(fields[0]) {
	case "LOCK":
		if len(fields) != 3 {
			return "ERR usage: LOCK <resource> <mode>", false
		}
		return se.lock(fields[1], fields[2]), false
	case "UNLOCK":
		if len(fields) != 2 {
			return "ERR usage: UNLOCK <resource>", false
		}
		return se.release(fields[1]), false
	case "UPGRADE":
		if len(fields) != 2 {
			return "ERR usage: UPGRADE <resource>", false
		}
		return se.upgrade(fields[1]), false
	case "LOCKPATH":
		if len(fields) < 3 {
			return "ERR usage: LOCKPATH <mode> <segment>...", false
		}
		return se.lockPath(fields[1], fields[2:]), false
	case "UNLOCKPATH":
		if len(fields) < 2 {
			return "ERR usage: UNLOCKPATH <segment>...", false
		}
		return se.release("path:" + strings.Join(fields[1:], "/")), false
	case "LOCKALL":
		if len(fields) < 3 {
			return "ERR usage: LOCKALL <mode> <resource>...", false
		}
		return se.lockAll(fields[1], fields[2:]), false
	case "UNLOCKALL":
		if len(fields) < 2 {
			return "ERR usage: UNLOCKALL <resource>...", false
		}
		return se.release("set:" + setKey(fields[1:])), false
	case "SESSION":
		return se.session(fields[1:]), false
	case "SESSIONS":
		return se.sessions(), false
	case "HELD":
		parts := make([]string, 0, se.sess.Len())
		for _, h := range se.sess.List() {
			switch {
			case h.HasFence:
				parts = append(parts, fmt.Sprintf("%s=%s@%s", h.Key, h.Mode, h.Fence))
			case h.Mode != "":
				parts = append(parts, fmt.Sprintf("%s=%s", h.Key, h.Mode))
			default:
				parts = append(parts, h.Key)
			}
		}
		return "OK " + strings.Join(parts, " "), false
	case "PEERS":
		health := se.srv.member.PeerHealth()
		lc := se.srv.member.LinkCounters()
		ids := make([]int, 0, len(health))
		for id := range health {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		parts := []string{fmt.Sprintf("redials=%d retransmits=%d dups_suppressed=%d",
			lc.Redials, lc.Retransmits, lc.DupsSuppressed)}
		for _, id := range ids {
			h := health[id]
			parts = append(parts, fmt.Sprintf("%d=%s/q%d", id, h.State, h.QueueLen))
		}
		return "OK " + strings.Join(parts, " "), false
	case "MEMBER":
		return se.memberCmd(fields[1:]), false
	case "QUIT":
		return "OK bye", true
	default:
		return fmt.Sprintf("ERR unknown command %s", strings.ToUpper(fields[0])), false
	}
}

// MembershipTimeout bounds the blocking membership handshakes: MEMBER
// ADD/REMOVE, and lockd's -join.
const MembershipTimeout = 30 * time.Second

// memberCmd handles the MEMBER subcommands: LIST renders this member's
// current view of the cluster (self marked with *), ADD makes this
// member join a running cluster through a seed member's peer address,
// and REMOVE makes it leave gracefully — every held token is handed off
// for regeneration among the survivors before the reply. The daemon
// stays up after REMOVE (its engines are fenced out of the cluster);
// shut it down once the reply confirms the hand-off.
func (se *connState) memberCmd(args []string) string {
	if len(args) == 0 {
		return "ERR usage: MEMBER LIST | MEMBER ADD <seed-addr> | MEMBER REMOVE"
	}
	switch strings.ToUpper(args[0]) {
	case "LIST":
		if len(args) != 1 {
			return "ERR usage: MEMBER LIST"
		}
		infos := se.srv.member.Members()
		parts := make([]string, 0, len(infos))
		for _, mi := range infos {
			p := strconv.Itoa(mi.ID)
			if mi.Addr != "" {
				p += "=" + mi.Addr
			}
			if mi.Self {
				p += "*"
			}
			parts = append(parts, p)
		}
		return "OK " + strings.Join(parts, " ")
	case "ADD":
		if len(args) != 2 {
			return "ERR usage: MEMBER ADD <seed-addr>"
		}
		ctx, cancel := context.WithTimeout(context.Background(), MembershipTimeout)
		defer cancel()
		if err := se.srv.member.Join(ctx, args[1]); err != nil {
			return fmt.Sprintf("ERR %v", err)
		}
		return fmt.Sprintf("OK joined via %s members=%d", args[1], len(se.srv.member.Members()))
	case "REMOVE":
		if len(args) != 1 {
			return "ERR usage: MEMBER REMOVE"
		}
		ctx, cancel := context.WithTimeout(context.Background(), MembershipTimeout)
		defer cancel()
		if err := se.srv.member.Leave(ctx); err != nil {
			return fmt.Sprintf("ERR %v", err)
		}
		return "OK left cluster (tokens handed off; shut this member down)"
	default:
		return fmt.Sprintf("ERR unknown MEMBER subcommand %s", strings.ToUpper(args[0]))
	}
}

// session handles the SESSION subcommands.
func (se *connState) session(args []string) string {
	if len(args) == 0 {
		return "ERR usage: SESSION OPEN <name> [ttl] | SESSION RENEW | SESSION CLOSE"
	}
	switch strings.ToUpper(args[0]) {
	case "OPEN":
		if len(args) < 2 || len(args) > 3 {
			return "ERR usage: SESSION OPEN <name> [ttl]"
		}
		if se.sess.Named() {
			return fmt.Sprintf("ERR session %s already open on this connection", se.sess.Name())
		}
		if se.sess.Len() > 0 {
			return "ERR locks held on anonymous session; release them first"
		}
		var ttl time.Duration
		if len(args) == 3 {
			var err error
			if ttl, err = parseTTL(args[2]); err != nil {
				return fmt.Sprintf("ERR %v", err)
			}
		}
		sess, adopted, err := se.mgr.Open(args[1], ttl)
		if err != nil {
			return fmt.Sprintf("ERR %v", err)
		}
		se.sess = sess
		return fmt.Sprintf("OK session %s ttl=%v adopted=%v locks=%d",
			sess.Name(), sess.TTL(), adopted, sess.Len())
	case "RENEW":
		if len(args) != 1 {
			return "ERR usage: SESSION RENEW"
		}
		ttl, err := se.sess.Renew()
		if err != nil {
			return fmt.Sprintf("ERR %v", err)
		}
		return fmt.Sprintf("OK session %s expires_in=%v", se.sess.Name(), ttl)
	case "CLOSE":
		if len(args) != 1 {
			return "ERR usage: SESSION CLOSE"
		}
		if !se.sess.Named() {
			return "ERR no session open"
		}
		name := se.sess.Name()
		n := se.mgr.CloseSession(se.sess)
		se.sess = se.mgr.Anonymous()
		return fmt.Sprintf("OK session %s released=%d", name, n)
	default:
		return fmt.Sprintf("ERR unknown SESSION subcommand %s", strings.ToUpper(args[0]))
	}
}

// sessions lists the lockd's named sessions.
func (se *connState) sessions() string {
	infos := se.mgr.Snapshot()
	parts := make([]string, 0, len(infos)+1)
	parts = append(parts, strconv.Itoa(len(infos)))
	for _, info := range infos {
		state := "detached"
		if info.Attached {
			state = "attached"
		}
		parts = append(parts, fmt.Sprintf("%s:%s:locks=%d:ttl=%v:expires_in=%v",
			info.Name, state, len(info.Locks), info.TTL,
			info.ExpiresIn.Round(time.Millisecond)))
	}
	return "OK " + strings.Join(parts, " ")
}

func (se *connState) lock(res, modeStr string) string {
	mode, err := ParseMode(modeStr)
	if err != nil {
		return fmt.Sprintf("ERR %v", err)
	}
	if _, dup := se.sess.Get(res); dup {
		return fmt.Sprintf("ERR already holding %s", res)
	}
	ctx, cancel := se.ctx()
	defer cancel()
	srv := se.srv
	acquire := func(ctx context.Context) (*hierlock.Lock, error) {
		return srv.member.Lock(ctx, res, mode)
	}
	l, fence, err := se.mgr.Acquire(ctx, res, mode, acquire)
	if err != nil {
		return fmt.Sprintf("ERR %v", err)
	}
	h := session.NewHeld(res, mode.String(), fence, true, l, l.Unlock)
	if err := se.sess.AddHeld(h); err != nil {
		// The session was reaped while the grant was in flight: the
		// lock must not outlive its lease.
		_ = l.Unlock()
		return fmt.Sprintf("ERR %v", err)
	}
	return fmt.Sprintf("OK %s %v fence=%s", res, mode, fence)
}

func (se *connState) upgrade(res string) string {
	h, ok := se.sess.Get(res)
	if !ok {
		return fmt.Sprintf("ERR not holding %s", res)
	}
	l, isLock := h.Handle.(*hierlock.Lock)
	if !isLock {
		return fmt.Sprintf("ERR %s is not upgradable", res)
	}
	ctx, cancel := se.ctx()
	defer cancel()
	if err := l.Upgrade(ctx); err != nil {
		return fmt.Sprintf("ERR %v", err)
	}
	h.Mode = l.Mode().String()
	h.Fence = l.Fence()
	return fmt.Sprintf("OK %s %v fence=%s", res, l.Mode(), h.Fence)
}

// release routes UNLOCK/UNLOCKPATH/UNLOCKALL of the session key through
// the session, which removes the entry only when the handle was actually
// disposed of (a failed unlock must stay visible to releaseAll). A
// successful release builds no string.
func (se *connState) release(key string) string {
	err := se.sess.Release(key)
	switch {
	case errors.Is(err, session.ErrNotHeld):
		return "ERR not holding " + key
	case err != nil:
		return fmt.Sprintf("ERR %v", err)
	}
	return "OK"
}

func (se *connState) lockPath(modeStr string, segs []string) string {
	mode, err := ParseMode(modeStr)
	if err != nil {
		return fmt.Sprintf("ERR %v", err)
	}
	key := "path:" + strings.Join(segs, "/")
	if _, dup := se.sess.Get(key); dup {
		return fmt.Sprintf("ERR already holding %s", key)
	}
	ctx, cancel := se.ctx()
	defer cancel()
	pl, err := se.srv.member.LockPath(ctx, segs, mode)
	if err != nil {
		return fmt.Sprintf("ERR %v", err)
	}
	leaf := pl.Leaf()
	h := session.NewHeld(key, leaf.Mode().String(), leaf.Fence(), true, pl, pl.Unlock)
	if err := se.sess.AddHeld(h); err != nil {
		_ = pl.Unlock()
		return fmt.Sprintf("ERR %v", err)
	}
	return fmt.Sprintf("OK %s %v fence=%s", key, leaf.Mode(), leaf.Fence())
}

func (se *connState) lockAll(modeStr string, resources []string) string {
	mode, err := ParseMode(modeStr)
	if err != nil {
		return fmt.Sprintf("ERR %v", err)
	}
	key := "set:" + setKey(resources)
	if _, dup := se.sess.Get(key); dup {
		return fmt.Sprintf("ERR already holding %s", key)
	}
	ctx, cancel := se.ctx()
	defer cancel()
	ls, err := se.srv.member.LockAll(ctx, resources, mode)
	if err != nil {
		return fmt.Sprintf("ERR %v", err)
	}
	h := session.NewHeld(key, "", hierlock.FenceToken{}, false, ls, ls.Unlock)
	if err := se.sess.AddHeld(h); err != nil {
		_ = ls.Unlock()
		return fmt.Sprintf("ERR %v", err)
	}
	return fmt.Sprintf("OK %s %d", key, ls.Len())
}

// ctx builds the per-request context honoring the server timeout.
func (se *connState) ctx() (context.Context, context.CancelFunc) {
	if se.srv.Timeout > 0 {
		return context.WithTimeout(context.Background(), se.srv.Timeout)
	}
	return context.Background(), func() {}
}

// parseTTL parses a client-supplied lease TTL: a Go duration ("30s")
// or a bare integer second count, saturating at the largest Duration
// (the session manager clamps any TTL above its MaxTTL).
func parseTTL(s string) (time.Duration, error) {
	if secs, err := strconv.Atoi(s); err == nil {
		if secs <= 0 {
			return 0, fmt.Errorf("ttl must be positive")
		}
		if secs > int(math.MaxInt64/time.Second) {
			return math.MaxInt64, nil
		}
		return time.Duration(secs) * time.Second, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad ttl %q (want a duration like 30s)", s)
	}
	if d <= 0 {
		return 0, fmt.Errorf("ttl must be positive")
	}
	return d, nil
}

// setKey canonically names a resource set (sorted, deduplicated).
func setKey(resources []string) string {
	rs := append([]string(nil), resources...)
	sort.Strings(rs)
	out := rs[:0]
	for i, r := range rs {
		if i == 0 || r != rs[i-1] {
			out = append(out, r)
		}
	}
	return strings.Join(out, ",")
}

// ParseMode parses a client-supplied mode name.
func ParseMode(s string) (hierlock.Mode, error) {
	switch strings.ToUpper(s) {
	case "IR":
		return hierlock.IR, nil
	case "R":
		return hierlock.R, nil
	case "U":
		return hierlock.U, nil
	case "IW":
		return hierlock.IW, nil
	case "W":
		return hierlock.W, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want IR, R, U, IW or W)", s)
	}
}
