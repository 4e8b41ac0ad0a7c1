package lockserver_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/lockserver"
	"hierlock/internal/metrics"
)

// TestUpgradeHonorsServerTimeout is the regression test for UPGRADE
// ignoring Server.Timeout: a contended upgrade used to wait on a
// background context forever, wedging the connection. It must fail
// within the configured timeout like any LOCK.
func TestUpgradeHonorsServerTimeout(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := lockserver.New(cl.Member(0))
	srv.Timeout = 300 * time.Millisecond
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	addrReader := startServer(t, cl.Member(1))

	// A reader on the other member blocks the upgrade to W.
	reader := dial(t, addrReader)
	reader.mustOK("LOCK acct R")

	c := dial(t, ln.Addr().String())
	c.mustOK("LOCK acct U")
	start := time.Now()
	resp := c.cmd("UPGRADE acct")
	elapsed := time.Since(start)
	if !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("contended upgrade: %q, want timeout error", resp)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("upgrade returned after %v; Server.Timeout was ignored", elapsed)
	}
	// The connection is intact and the U hold survives the failed upgrade.
	if got := c.mustOK("HELD"); !strings.Contains(got, "acct=U") {
		t.Fatalf("held after failed upgrade: %q", got)
	}
	reader.mustOK("UNLOCK acct")
}

// TestLockHonorsServerTimeout: a contended LOCK leads its admission
// queue under the connection's own Server.Timeout (one timer, armed by
// the connection) and answers ERR when it expires; the failure is the
// head's alone — a second client parked behind it takes the baton and
// gets the lock once the holder releases.
func TestLockHonorsServerTimeout(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const timeout = time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := lockserver.New(cl.Member(0))
	srv.Timeout = timeout
	srv.Registry = reg
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	enqueued := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for reg.Counter(metrics.MetricAdmissionEnqueued, "", nil).Value() < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d enqueued, want %d", reg.Counter(metrics.MetricAdmissionEnqueued, "", nil).Value(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A writer on the other member keeps both local clients waiting.
	holder := dial(t, startServer(t, cl.Member(1)))
	holder.mustOK("LOCK acct W")

	type reply struct {
		resp    string
		elapsed time.Duration
	}
	lock := func(out chan<- reply) {
		c := dial(t, ln.Addr().String())
		start := time.Now()
		resp := c.cmd("LOCK acct W")
		out <- reply{resp, time.Since(start)}
	}
	head, follower := make(chan reply, 1), make(chan reply, 1)
	go lock(head)
	enqueued(1)
	// The follower arrives half a timeout later, so its deadline
	// outlives the head's by that much.
	time.Sleep(timeout / 2)
	go lock(follower)
	enqueued(2)

	r := <-head
	if !strings.HasPrefix(r.resp, "ERR") {
		t.Fatalf("contended lock: %q, want timeout error", r.resp)
	}
	if r.elapsed > 2*timeout {
		t.Fatalf("contended lock answered after %v, want within 2×Timeout = %v", r.elapsed, 2*timeout)
	}
	holder.mustOK("UNLOCK acct")
	if r := <-follower; !strings.HasPrefix(r.resp, "OK") {
		t.Fatalf("follower behind a timed-out head: %q, want the lock", r.resp)
	}
}

// TestCloseDrainsIdleConns is the regression test for Server.Close only
// closing the listener: connections blocked reading an idle client used
// to linger, so Serve (which waits for them) never returned.
func TestCloseDrainsIdleConns(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := lockserver.New(cl.Member(0))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	// An idle client: connected, command exchanged, then silent.
	c := dial(t, ln.Addr().String())
	c.mustOK("LOCK a W")

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close: idle connection not drained")
	}
	// The idle client's connection was closed under it.
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if c.rd.Scan() {
		t.Fatalf("unexpected line after Close: %q", c.rd.Text())
	}
}

// TestLongLineHandled is the regression test for the 64KB scanner cap:
// an oversized line must answer ERR and leave the connection usable,
// and a long-but-valid LOCKALL far beyond 64KB must now work.
func TestLongLineHandled(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := startServer(t, cl.Member(0))
	c := dial(t, addr)

	// Far over the 1MB line cap: rejected, not fatal.
	if resp := c.cmd("LOCKALL W " + strings.Repeat("x", 2<<20)); !strings.HasPrefix(resp, "ERR line too long") {
		t.Fatalf("oversized line: %q", resp)
	}
	c.mustOK("LOCK a W")
	c.mustOK("UNLOCK a")

	// ~100KB of resources — over the old bufio.Scanner default cap that
	// used to kill the session mid-LOCKALL.
	resources := make([]string, 6000)
	for i := range resources {
		resources[i] = fmt.Sprintf("res/%08d", i)
	}
	line := "LOCKALL R " + strings.Join(resources, " ")
	if len(line) <= 64*1024 {
		t.Fatalf("test line only %d bytes; not past the old cap", len(line))
	}
	if got := c.mustOK(line); !strings.Contains(got, "6000") {
		t.Fatalf("long LOCKALL: %q", got)
	}
	c.mustOK("UNLOCKALL " + strings.Join(resources, " "))
}

// TestAdmissionO1Traffic: many clients blocked on one hot lock must
// cost O(1) member-level protocol work per grant — one leader
// acquisition, everything else local hand-offs. This is the 10k-waiter
// property at test scale.
func TestAdmissionO1Traffic(t *testing.T) {
	const n = 120
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr, reg := startSessionServer(t, cl.Member(0), time.Minute, 0)

	holder := dial(t, addr)
	holder.mustOK("LOCK hot W")

	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := dial(t, addr)
			resp := w.cmd("LOCK hot W")
			if !strings.HasPrefix(resp, "OK") {
				errs <- resp
				return
			}
			if resp := w.cmd("UNLOCK hot"); !strings.HasPrefix(resp, "OK") {
				errs <- resp
			}
		}()
	}
	// Wait until all n are parked in the admission queue, then measure
	// protocol traffic across the entire fan-out.
	deadline := time.Now().Add(30 * time.Second)
	for reg.Counter(metrics.MetricAdmissionEnqueued, "", nil).Value() < n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d enqueued", reg.Counter(metrics.MetricAdmissionEnqueued, "", nil).Value())
		}
		time.Sleep(time.Millisecond)
	}
	sentBefore := cl.Member(0).Stats().MessagesSent
	holder.mustOK("UNLOCK hot")
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("waiter failed: %q", e)
	}
	sentDelta := cl.Member(0).Stats().MessagesSent - sentBefore

	if got := reg.Counter(metrics.MetricAdmissionLeaderAcquires, "", nil).Value(); got != 1 {
		t.Fatalf("leader acquires = %d, want 1", got)
	}
	if got := reg.Counter(metrics.MetricAdmissionHandoffs, "", nil).Value(); got != n {
		t.Fatalf("handoffs = %d, want %d", got, n)
	}
	// O(1), not O(n): the whole n-client fan-out may cost at most a
	// handful of protocol messages (the final no-taker release).
	if sentDelta > 10 {
		t.Fatalf("fan-out sent %d protocol messages for %d grants; admission is not O(1)", sentDelta, n)
	}
}
