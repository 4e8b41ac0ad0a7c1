package lockserver_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/lockserver"
)

// startServer runs a lockserver for member m on an ephemeral port.
func startServer(t *testing.T, m *hierlock.Member) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := lockserver.New(m)
	srv.Timeout = 10 * time.Second
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

type client struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Scanner
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	rd := bufio.NewScanner(conn)
	rd.Buffer(make([]byte, 0, 1<<20), 1<<20) // replies can echo long set keys
	return &client{t: t, conn: conn, rd: rd}
}

func (c *client) cmd(line string) string {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		c.t.Fatal(err)
	}
	if !c.rd.Scan() {
		c.t.Fatalf("connection closed: %v", c.rd.Err())
	}
	return c.rd.Text()
}

// try sends one command and returns its reply, for a client goroutine
// that must not stop the test itself.
func (c *client) try(line string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return "", err
	}
	if !c.rd.Scan() {
		return "", fmt.Errorf("connection closed: %v", c.rd.Err())
	}
	return c.rd.Text(), nil
}

func (c *client) mustOK(line string) string {
	c.t.Helper()
	resp := c.cmd(line)
	if !strings.HasPrefix(resp, "OK") {
		c.t.Fatalf("%q -> %q", line, resp)
	}
	return resp
}

func TestSessionLifecycle(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := startServer(t, cl.Member(0))

	c := dial(t, addr)
	if got := c.mustOK("LOCK fares/r1 W"); !strings.Contains(got, "fares/r1 W") {
		t.Fatalf("lock reply: %q", got)
	}
	if got := c.mustOK("HELD"); !strings.Contains(got, "fares/r1=W") {
		t.Fatalf("held reply: %q", got)
	}
	c.mustOK("UNLOCK fares/r1")
	if got := c.mustOK("HELD"); strings.TrimSpace(got) != "OK" {
		t.Fatalf("held after unlock: %q", got)
	}
	if got := c.cmd("QUIT"); got != "OK bye" {
		t.Fatalf("quit reply: %q", got)
	}
}

func TestErrors(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := startServer(t, cl.Member(0))
	c := dial(t, addr)

	for _, bad := range []string{
		"LOCK a", "LOCK a BOGUS", "UNLOCK", "UNLOCK nothing",
		"UPGRADE", "UPGRADE nothing", "NOSUCH", "",
	} {
		if resp := c.cmd(bad); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q -> %q, want ERR", bad, resp)
		}
	}
	if resp := c.cmd("UNLOCK nothing"); resp != "ERR not holding nothing" {
		t.Errorf("UNLOCK of a lock not held -> %q", resp)
	}
	c.mustOK("LOCK a R")
	if resp := c.cmd("LOCK a R"); !strings.HasPrefix(resp, "ERR already holding") {
		t.Errorf("duplicate lock -> %q", resp)
	}
	if resp := c.cmd("UPGRADE a"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("upgrade from R -> %q", resp)
	}
}

func TestUpgradeViaProtocol(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := startServer(t, cl.Member(1))
	c := dial(t, addr)
	c.mustOK("LOCK acct U")
	if got := c.mustOK("UPGRADE acct"); !strings.Contains(got, "acct W") {
		t.Fatalf("upgrade reply: %q", got)
	}
	c.mustOK("UNLOCK acct")
}

func TestDisconnectReleasesLocks(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := startServer(t, cl.Member(0))

	c1 := dial(t, addr)
	c1.mustOK("LOCK shared W")
	_ = c1.conn.Close()

	// After c1 vanishes, its W must be released so c2 can take it.
	c2 := dial(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := c2.cmd("LOCK shared W")
		if strings.HasPrefix(resp, "OK") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock never released after disconnect: %q", resp)
		}
		time.Sleep(50 * time.Millisecond)
	}
	c2.mustOK("UNLOCK shared")
}

func TestTwoDaemonsShareLocks(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr0 := startServer(t, cl.Member(0))
	addr1 := startServer(t, cl.Member(1))

	c0 := dial(t, addr0)
	c1 := dial(t, addr1)
	c0.mustOK("LOCK doc R")
	c1.mustOK("LOCK doc R") // shared readers across daemons

	done := make(chan string, 1)
	go func() {
		w := dial(t, addr1)
		done <- w.cmd("LOCK doc W")
	}()
	select {
	case resp := <-done:
		t.Fatalf("writer acquired while readers held: %q", resp)
	case <-time.After(300 * time.Millisecond):
	}
	c0.mustOK("UNLOCK doc")
	c1.mustOK("UNLOCK doc")
	select {
	case resp := <-done:
		if !strings.HasPrefix(resp, "OK") {
			t.Fatalf("writer failed: %q", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer starved")
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]hierlock.Mode{
		"ir": hierlock.IR, "R": hierlock.R, "u": hierlock.U,
		"Iw": hierlock.IW, "w": hierlock.W,
	} {
		got, err := lockserver.ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := lockserver.ParseMode("x"); err == nil {
		t.Error("bad mode must fail")
	}
}

func TestLockPathViaProtocol(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := startServer(t, cl.Member(0))
	c := dial(t, addr)

	if got := c.mustOK("LOCKPATH W fares row17"); !strings.Contains(got, "path:fares/row17 W") {
		t.Fatalf("lockpath reply: %q", got)
	}
	if got := c.mustOK("HELD"); !strings.Contains(got, "path:fares/row17=W") {
		t.Fatalf("held reply: %q", got)
	}
	if resp := c.cmd("LOCKPATH W fares row17"); !strings.HasPrefix(resp, "ERR already") {
		t.Fatalf("duplicate path -> %q", resp)
	}
	// Another client can take a disjoint row concurrently.
	c2 := dial(t, addr)
	c2.mustOK("LOCKPATH W fares row18")
	c2.mustOK("UNLOCKPATH fares row18")
	c.mustOK("UNLOCKPATH fares row17")
	if resp := c.cmd("UNLOCKPATH fares row17"); resp != "ERR not holding path:fares/row17" {
		t.Fatalf("double unlockpath -> %q", resp)
	}
	for _, bad := range []string{"LOCKPATH", "LOCKPATH W", "UNLOCKPATH", "LOCKPATH BOGUS a b"} {
		if resp := c.cmd(bad); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q -> %q", bad, resp)
		}
	}
}

func TestLockAllViaProtocol(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := startServer(t, cl.Member(0))
	c := dial(t, addr)

	if got := c.mustOK("LOCKALL W b a c"); !strings.Contains(got, "set:a,b,c 3") {
		t.Fatalf("lockall reply: %q", got)
	}
	if got := c.mustOK("HELD"); !strings.Contains(got, "set:a,b,c") {
		t.Fatalf("held reply: %q", got)
	}
	// Unlock with the names in any order (canonical key).
	c.mustOK("UNLOCKALL c a b")
	if resp := c.cmd("UNLOCKALL a b c"); resp != "ERR not holding set:a,b,c" {
		t.Fatalf("double unlockall -> %q", resp)
	}
	for _, bad := range []string{"LOCKALL", "LOCKALL W", "UNLOCKALL", "LOCKALL Z a"} {
		if resp := c.cmd(bad); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q -> %q", bad, resp)
		}
	}
}

func TestDisconnectReleasesPathsAndSets(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := startServer(t, cl.Member(0))

	c1 := dial(t, addr)
	c1.mustOK("LOCKPATH W db tbl")
	c1.mustOK("LOCKALL W s1 s2")
	_ = c1.conn.Close()

	c2 := dial(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp := c2.cmd("LOCKALL W db/tbl s1 s2"); strings.HasPrefix(resp, "OK") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("locks not released after disconnect")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestDebugHandler(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := lockserver.New(cl.Member(1))
	h := srv.DebugHandler()

	// Generate some activity.
	l, err := cl.Member(1).Lock(context.Background(), "dbg", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Unlock()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nosuch", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path: %d", rec.Code)
	}
}

// countingConn counts the writes ServeConn makes to its client.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestPipelinedLinesShareOneWrite: commands sent in one write are
// executed in order and answered in order, in one write — release and
// next acquire in one round trip — while a lone line is answered at once;
// no reply waits for a line the client has only begun; a QUIT at the end
// of a burst still gets the burst's replies out.
func TestPipelinedLinesShareOneWrite(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := lockserver.New(cl.Member(0))
	t.Cleanup(func() { _ = srv.Close() })
	client, server := net.Pipe()
	cc := &countingConn{Conn: server}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeConn(cc) }()
	_ = client.SetDeadline(time.Now().Add(10 * time.Second))
	rd := bufio.NewReader(client)
	// send writes the lines in one Write and returns as many reply lines.
	send := func(lines ...string) []string {
		t.Helper()
		if _, err := client.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
			t.Fatal(err)
		}
		replies := make([]string, len(lines))
		for i := range replies {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("reply %d of %v: %v", i+1, lines, err)
			}
			replies[i] = strings.TrimSuffix(line, "\n")
		}
		return replies
	}

	if got := send("LOCK a W"); !strings.HasPrefix(got[0], "OK a W fence=") || cc.writes.Load() != 1 {
		t.Fatalf("lone line: %q in %d writes", got, cc.writes.Load())
	}
	got := send("UNLOCK a", "LOCK b W", "HELD")
	if got[0] != "OK" || !strings.HasPrefix(got[1], "OK b W fence=") || !strings.HasPrefix(got[2], "OK b=W@") {
		t.Fatalf("pipelined replies out of order or wrong: %q", got)
	}
	if n := cc.writes.Load(); n != 2 {
		t.Fatalf("three pipelined lines were answered in %d writes, want 1", n-1)
	}
	// A reply does not wait for the rest of a line the client has begun.
	if _, err := client.Write([]byte("HELD\nHEL")); err != nil {
		t.Fatal(err)
	}
	if line, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK b=W@") {
		t.Fatalf("reply behind a partial line: %q, %v", line, err)
	}
	if got := send("D"); !strings.HasPrefix(got[0], "OK b=W@") {
		t.Fatalf("completed line: %q", got)
	}
	cc.writes.Store(2)
	if got := send("bogus", "QUIT"); !strings.HasPrefix(got[0], "ERR unknown command") || got[1] != "OK bye" || cc.writes.Load() != 3 {
		t.Fatalf("burst ending in QUIT: %q, %d writes in all", got, cc.writes.Load())
	}
	<-done
}
