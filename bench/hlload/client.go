package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"hierlock"
	"hierlock/internal/session"
)

// caller drives ops against one surface of the system. The four
// workloads and every ladder rung are callers, so a rung that "explains"
// a workload runs the very code the workload runs.
type caller interface {
	// acquire performs op's first request and returns the leaf's fence.
	acquire(o *op) (hierlock.FenceToken, error)
	// upgrade performs the U→W step of an op that has one.
	upgrade(o *op) (hierlock.FenceToken, error)
	release(o *op) error
	// abort unblocks a call stuck in the system (timeout or interrupt);
	// the caller is unusable afterwards.
	abort()
	close() error
}

// replyError is an "ERR ..." answer: the operation failed but the
// connection is still usable.
type replyError struct{ line string }

func (e *replyError) Error() string { return "server answered: " + e.line }

// lineCaller speaks lockd's line protocol over one connection.
type lineCaller struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader
}

func dialLine(addr string) (*lineCaller, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial lockserver %s: %w", addr, err)
	}
	return newLineCaller(conn), nil
}

func newLineCaller(conn io.ReadWriteCloser) *lineCaller {
	return &lineCaller{conn: conn, br: bufio.NewReader(conn)}
}

// roundTrip writes one request line and reads its reply. The returned
// slice is only valid until the next call.
func (c *lineCaller) roundTrip(cmd []byte) ([]byte, error) {
	if _, err := c.conn.Write(cmd); err != nil {
		return nil, fmt.Errorf("write request: %w", err)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("read reply: %w", err)
	}
	line = bytes.TrimRight(line, "\r\n")
	if !isOK(line) {
		return nil, &replyError{line: string(line)}
	}
	return line, nil
}

// isOK reports whether a reply line is "OK" or starts with "OK ".
func isOK(line []byte) bool {
	return bytes.HasPrefix(line, []byte("OK")) && (len(line) == 2 || line[2] == ' ')
}

// replyFence extracts the fence=<epoch.seq> field of a grant reply.
func replyFence(line []byte) (hierlock.FenceToken, error) {
	i := bytes.LastIndex(line, []byte(" fence="))
	if i < 0 {
		return hierlock.FenceToken{}, fmt.Errorf("reply %q carries no fence", line)
	}
	return hierlock.ParseFence(string(line[i+len(" fence="):]))
}

func (c *lineCaller) grant(cmd []byte) (hierlock.FenceToken, error) {
	line, err := c.roundTrip(cmd)
	if err != nil {
		return hierlock.FenceToken{}, err
	}
	return replyFence(line)
}

func (c *lineCaller) acquire(o *op) (hierlock.FenceToken, error) { return c.grant(o.acquire) }
func (c *lineCaller) upgrade(o *op) (hierlock.FenceToken, error) { return c.grant(o.upgrade) }

func (c *lineCaller) release(o *op) error {
	_, err := c.roundTrip(o.release)
	return err
}

// held returns the HELD listing (empty once everything is released).
func (c *lineCaller) held() (string, error) {
	line, err := c.roundTrip([]byte("HELD\n"))
	if err != nil {
		return "", err
	}
	return string(bytes.TrimSpace(line[2:])), nil
}

func (c *lineCaller) abort()       { _ = c.conn.Close() }
func (c *lineCaller) close() error { return c.conn.Close() }

// memberCaller uses the Go API of one member directly.
type memberCaller struct {
	m      *hierlock.Member
	ctx    context.Context
	cancel context.CancelFunc
	cur    *hierlock.Lock
}

func newMemberCaller(m *hierlock.Member) *memberCaller {
	ctx, cancel := context.WithCancel(context.Background())
	return &memberCaller{m: m, ctx: ctx, cancel: cancel}
}

func (c *memberCaller) acquire(o *op) (hierlock.FenceToken, error) {
	l, err := c.m.Lock(c.ctx, o.res, o.mode)
	if err != nil {
		return hierlock.FenceToken{}, err
	}
	c.cur = l
	return l.Fence(), nil
}

func (c *memberCaller) upgrade(*op) (hierlock.FenceToken, error) {
	if err := c.cur.Upgrade(c.ctx); err != nil {
		return hierlock.FenceToken{}, err
	}
	return c.cur.Fence(), nil
}

func (c *memberCaller) release(*op) error { return c.cur.Unlock() }
func (c *memberCaller) abort()            { c.cancel() }
func (c *memberCaller) close() error      { c.cancel(); return nil }

// sessionCaller goes through the session tier's admission queue around a
// member, as lockserver's LOCK/UNLOCK handlers do.
type sessionCaller struct {
	*memberCaller
	mgr *session.Manager
}

func newSessionCaller(m *hierlock.Member, mgr *session.Manager) *sessionCaller {
	return &sessionCaller{memberCaller: newMemberCaller(m), mgr: mgr}
}

func (c *sessionCaller) acquire(o *op) (hierlock.FenceToken, error) {
	l, f, err := c.mgr.Acquire(c.ctx, o.res, o.mode, func(ctx context.Context) (*hierlock.Lock, error) {
		return c.m.Lock(ctx, o.res, o.mode)
	})
	c.cur = l
	return f, err
}

func (c *sessionCaller) release(o *op) error { return c.mgr.Release(o.res, o.mode, c.cur) }

// altCaller alternates between two callers op by op: one closed-loop
// client whose every acquire finds the token on the other node.
type altCaller struct {
	sides [2]caller
	n     int
}

func (c *altCaller) acquire(o *op) (hierlock.FenceToken, error) { return c.sides[c.n%2].acquire(o) }
func (c *altCaller) upgrade(o *op) (hierlock.FenceToken, error) { return c.sides[c.n%2].upgrade(o) }

func (c *altCaller) release(o *op) error {
	err := c.sides[c.n%2].release(o)
	c.n++
	return err
}

func (c *altCaller) abort() {
	c.sides[0].abort()
	c.sides[1].abort()
}

func (c *altCaller) close() error {
	return errors.Join(c.sides[0].close(), c.sides[1].close())
}
