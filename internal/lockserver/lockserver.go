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
//	PEERS                         per-peer detector verdict and queue depth
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
	"unicode"
	"unicode/utf8"

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
			DefaultTTL: s.LeaseTTL,
			MaxWaiters: s.MaxWaiters,
			Registry:   s.Registry,
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
	se.acquire = se.memberLock
	defer func() { se.mgr.Detach(se.sess) }()

	br := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var out []byte // the reply being built, reused line to line
	for {
		line, err := readLine(br)
		var quit bool
		switch err {
		case nil:
			out, quit = se.handle(out[:0], line)
		case errLineTooLong:
			out = append(out[:0], "ERR line too long"...)
		default:
			return
		}
		// A failed write is remembered by w and reported by Flush.
		_, _ = w.Write(append(out, '\n'))
		// A long line's buffers are not kept for the connection's life.
		if cap(out) > 4<<10 || cap(se.fields) > 256 {
			out, se.fields = nil, nil
		}
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

// readLine reads one newline-terminated line of at most maxLine bytes,
// without its trailing CR and LF bytes. A line that fits br's buffer, the
// common case, is returned where br holds it, uncopied, valid until the
// next read from br. A longer one is gathered into a copy; one over
// maxLine is consumed to its newline and reported as errLineTooLong,
// leaving the stream usable. A final unterminated line before EOF is
// returned as a line.
func readLine(br *bufio.Reader) ([]byte, error) {
	frag, err := br.ReadSlice('\n')
	switch {
	case err == nil, err == io.EOF && len(frag) > 0:
		return bytes.TrimRight(frag, "\r\n"), nil
	case err != bufio.ErrBufferFull:
		return nil, err
	}
	buf := append([]byte(nil), frag...)
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
				return nil, errLineTooLong
			}
			return bytes.TrimRight(buf, "\r\n"), nil
		default:
			if err == io.EOF && !overflow {
				return bytes.TrimRight(buf, "\r\n"), nil
			}
			return nil, err
		}
	}
}

// connState binds one client connection to its current session.
type connState struct {
	srv  *Server
	mgr  *session.Manager
	sess *session.Session
	// fields is the line being handled, split where it lies; the slice is
	// reused line to line.
	fields [][]byte
	// acquire is memberLock, bound once per connection, and lockRes and
	// lockMode the LOCK it acquires for.
	acquire  session.Acquirer
	lockRes  string
	lockMode hierlock.Mode
}

// handle executes one command line, appends its reply (without the
// newline) to out and returns it, plus whether the session should end.
// The line is only read: a name the session keeps is copied out of it.
func (se *connState) handle(out, line []byte) ([]byte, bool) {
	se.fields = splitFields(se.fields[:0], line)
	fields := se.fields
	if len(fields) == 0 {
		return append(out, "ERR empty command"...), false
	}
	// A reaped session answers one "ERR session expired" and the
	// connection falls back to a fresh anonymous session; any command
	// on a live named session counts as a heartbeat.
	if se.sess.Named() && se.sess.Expired() {
		se.sess = se.mgr.Anonymous()
		return append(out, "ERR session expired"...), false
	}
	se.sess.Touch()
	var up [16]byte
	switch verb := upper(up[:0], fields[0]); string(verb) {
	case "LOCK":
		if len(fields) != 3 {
			return append(out, "ERR usage: LOCK <resource> <mode>"...), false
		}
		return se.lock(out, fields[1], fields[2]), false
	case "UNLOCK":
		if len(fields) != 2 {
			return append(out, "ERR usage: UNLOCK <resource>"...), false
		}
		return se.release(out, string(fields[1])), false
	case "UPGRADE":
		if len(fields) != 2 {
			return append(out, "ERR usage: UPGRADE <resource>"...), false
		}
		return se.upgrade(out, string(fields[1])), false
	case "LOCKPATH":
		if len(fields) < 3 {
			return append(out, "ERR usage: LOCKPATH <mode> <segment>..."...), false
		}
		return se.lockPath(out, fields[1], strs(fields[2:])), false
	case "UNLOCKPATH":
		if len(fields) < 2 {
			return append(out, "ERR usage: UNLOCKPATH <segment>..."...), false
		}
		return se.release(out, "path:"+strings.Join(strs(fields[1:]), "/")), false
	case "LOCKALL":
		if len(fields) < 3 {
			return append(out, "ERR usage: LOCKALL <mode> <resource>..."...), false
		}
		return se.lockAll(out, fields[1], strs(fields[2:])), false
	case "UNLOCKALL":
		if len(fields) < 2 {
			return append(out, "ERR usage: UNLOCKALL <resource>..."...), false
		}
		return se.release(out, "set:"+setKey(strs(fields[1:]))), false
	case "SESSION":
		return append(out, se.session(strs(fields[1:]))...), false
	case "SESSIONS":
		return append(out, se.sessions()...), false
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
		return append(append(out, "OK "...), strings.Join(parts, " ")...), false
	case "PEERS":
		health := se.srv.member.PeerHealth()
		lc := se.srv.member.LinkCounters()
		ids := make([]int, 0, len(health))
		for id := range health {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		out = fmt.Appendf(out, "OK redials=%d retransmits=%d dups_suppressed=%d",
			lc.Redials, lc.Retransmits, lc.DupsSuppressed)
		for _, id := range ids {
			h := health[id]
			out = fmt.Appendf(out, " %d=%s/q%d", id, h.State, h.QueueLen)
		}
		return out, false
	case "MEMBER":
		return append(out, se.memberCmd(strs(fields[1:]))...), false
	case "QUIT":
		return append(out, "OK bye"...), true
	default:
		return append(append(out, "ERR unknown command "...), verb...), false
	}
}

// splitFields appends to dst the fields of line — its runs of non-space
// bytes, space as unicode.IsSpace has it — as strings.Fields splits a
// string, each a subslice of line.
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// upper appends b upper-cased, as strings.ToUpper has it, to dst: an
// ASCII word (every verb and mode) byte by byte, anything else through
// strings.ToUpper.
func upper(dst, b []byte) []byte {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return append(dst, strings.ToUpper(string(b))...)
		}
	}
	for _, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// strs copies fields out as strings, for the verbs whose arguments the
// session or the member keep as names.
func strs(fields [][]byte) []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = string(f)
	}
	return out
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

func (se *connState) lock(out, resource, modeName []byte) []byte {
	mode, err := parseMode(modeName)
	if err != nil {
		return fmt.Appendf(out, "ERR %v", err)
	}
	// The one copy out of the line: the session keys its entry by it and
	// the member names the lock with it.
	res := string(resource)
	if _, dup := se.sess.Get(res); dup {
		return append(append(out, "ERR already holding "...), res...)
	}
	ctx, cancel := se.ctx()
	defer cancel()
	se.lockRes, se.lockMode = res, mode
	l, fence, err := se.mgr.Acquire(ctx, res, mode, se.acquire)
	if err != nil {
		return fmt.Appendf(out, "ERR %v", err)
	}
	h := session.NewHeld(res, mode.String(), fence, true, l)
	if err := se.sess.AddHeld(h); err != nil {
		// The session was reaped while the grant was in flight: the
		// lock must not outlive its lease.
		_ = l.Unlock()
		return fmt.Appendf(out, "ERR %v", err)
	}
	return appendGrant(out, res, mode, fence)
}

// memberLock acquires the LOCK in progress (lockRes, lockMode) from the
// member. It is the connection's Acquirer, bound once, so a LOCK builds
// no closure.
func (se *connState) memberLock(ctx context.Context) (*hierlock.Lock, error) {
	return se.srv.member.Lock(ctx, se.lockRes, se.lockMode)
}

// appendGrant appends a grant's reply, "OK <key> <mode> fence=<fence>",
// with the fence in FenceToken.String's form.
func appendGrant(out []byte, key string, mode hierlock.Mode, fence hierlock.FenceToken) []byte {
	out = append(out, "OK "...)
	out = append(out, key...)
	out = append(out, ' ')
	out = append(out, mode.String()...)
	out = append(out, " fence="...)
	out = strconv.AppendUint(out, uint64(fence.Epoch), 10)
	out = append(out, '.')
	return strconv.AppendUint(out, fence.Seq, 10)
}

func (se *connState) upgrade(out []byte, res string) []byte {
	h, ok := se.sess.Get(res)
	if !ok {
		return append(append(out, "ERR not holding "...), res...)
	}
	l, isLock := h.Handle.(*hierlock.Lock)
	if !isLock {
		return append(append(append(out, "ERR "...), res...), " is not upgradable"...)
	}
	ctx, cancel := se.ctx()
	defer cancel()
	if err := l.Upgrade(ctx); err != nil {
		return fmt.Appendf(out, "ERR %v", err)
	}
	h.Mode = l.Mode().String()
	h.Fence = l.Fence()
	return appendGrant(out, res, l.Mode(), h.Fence)
}

// release routes UNLOCK/UNLOCKPATH/UNLOCKALL of the session key through
// the session, which removes the entry only when the handle was actually
// disposed of (a failed unlock must stay visible to releaseAll). The key
// is not kept.
func (se *connState) release(out []byte, key string) []byte {
	err := se.sess.Release(key)
	switch {
	case errors.Is(err, session.ErrNotHeld):
		return append(append(out, "ERR not holding "...), key...)
	case err != nil:
		return fmt.Appendf(out, "ERR %v", err)
	}
	return append(out, "OK"...)
}

func (se *connState) lockPath(out, modeName []byte, segs []string) []byte {
	mode, err := parseMode(modeName)
	if err != nil {
		return fmt.Appendf(out, "ERR %v", err)
	}
	key := "path:" + strings.Join(segs, "/")
	if _, dup := se.sess.Get(key); dup {
		return fmt.Appendf(out, "ERR already holding %s", key)
	}
	ctx, cancel := se.ctx()
	defer cancel()
	pl, err := se.srv.member.LockPath(ctx, segs, mode)
	if err != nil {
		return fmt.Appendf(out, "ERR %v", err)
	}
	leaf := pl.Leaf()
	h := session.NewHeld(key, leaf.Mode().String(), leaf.Fence(), true, pl)
	if err := se.sess.AddHeld(h); err != nil {
		_ = pl.Unlock()
		return fmt.Appendf(out, "ERR %v", err)
	}
	return appendGrant(out, key, leaf.Mode(), leaf.Fence())
}

func (se *connState) lockAll(out, modeName []byte, resources []string) []byte {
	mode, err := parseMode(modeName)
	if err != nil {
		return fmt.Appendf(out, "ERR %v", err)
	}
	key := "set:" + setKey(resources)
	if _, dup := se.sess.Get(key); dup {
		return fmt.Appendf(out, "ERR already holding %s", key)
	}
	ctx, cancel := se.ctx()
	defer cancel()
	ls, err := se.srv.member.LockAll(ctx, resources, mode)
	if err != nil {
		return fmt.Appendf(out, "ERR %v", err)
	}
	h := session.NewHeld(key, "", hierlock.FenceToken{}, false, ls)
	if err := se.sess.AddHeld(h); err != nil {
		_ = ls.Unlock()
		return fmt.Appendf(out, "ERR %v", err)
	}
	return fmt.Appendf(out, "OK %s %d", key, ls.Len())
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
// (the session manager clamps any TTL above 10× its default TTL).
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
func ParseMode(s string) (hierlock.Mode, error) { return parseMode([]byte(s)) }

// parseMode is ParseMode on a field of the line being handled.
func parseMode(name []byte) (hierlock.Mode, error) {
	var up [4]byte
	switch string(upper(up[:0], name)) {
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
	}
	return 0, fmt.Errorf("unknown mode %q (want IR, R, U, IW or W)", name)
}
