package lockserver_test

import (
	"fmt"
	"net"
	"strconv"
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

// TestLockHonorsServerTimeout: a contended LOCK waits at the member under
// the connection's own Server.Timeout (one timer, armed by the
// connection) and answers ERR when it expires; the failure is the first
// client's alone — a second client queued behind it for the member's
// admission slot gets the slot, and the lock once the holder releases.
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

// TestAdmissionO1Traffic: many clients blocked on one hot lock whose
// token is resident wait in the member's admission FIFO and cost no
// protocol traffic: 120 parked clients drain with at most a handful of
// member messages, one member-level acquisition per grant, each grant's
// fence above the one before. This is the 10k-waiter property at test
// scale.
func TestAdmissionO1Traffic(t *testing.T) {
	const n = 120
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr, reg := startSessionServer(t, cl.Member(0), time.Minute, 0)

	holder := dial(t, addr)
	var mu sync.Mutex
	grants := []string{holder.mustOK("LOCK hot W")}
	waiters := make([]*client, n)
	for i := range waiters {
		waiters[i] = dial(t, addr)
	}
	var wg sync.WaitGroup
	for _, w := range waiters {
		wg.Add(1)
		go func(w *client) {
			defer wg.Done()
			reply, err := w.try("LOCK hot W")
			if err != nil || !strings.HasPrefix(reply, "OK") {
				t.Errorf("waiter: %q, %v", reply, err)
				return
			}
			mu.Lock() // still holding W: grants append in grant order
			grants = append(grants, reply)
			mu.Unlock()
			if reply, err := w.try("UNLOCK hot"); err != nil || reply != "OK" {
				t.Errorf("waiter unlock: %q, %v", reply, err)
			}
		}(w)
	}
	// Wait until all n are waiting, then measure protocol traffic across
	// the entire fan-out.
	deadline := time.Now().Add(30 * time.Second)
	for gauge(t, reg, metrics.MetricAdmissionWaiting) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %v waiting", gauge(t, reg, metrics.MetricAdmissionWaiting))
		}
		time.Sleep(time.Millisecond)
	}
	sentBefore := cl.Member(0).Stats().MessagesSent
	holder.mustOK("UNLOCK hot")
	wg.Wait()
	if t.Failed() {
		return
	}
	sentDelta := cl.Member(0).Stats().MessagesSent - sentBefore

	if got := reg.Counter(metrics.MetricAdmissionLeaderAcquires, "", nil).Value(); got != n+1 {
		t.Fatalf("leader acquires = %d, want %d", got, n+1)
	}
	for i := 1; i < len(grants); i++ {
		if prev, f := fenceOf(t, grants[i-1]), fenceOf(t, grants[i]); !prev.Less(f) {
			t.Fatalf("grant %d fence %s not above its predecessor's %s", i, f, prev)
		}
	}
	// O(1), not O(n): the token never leaves the member, so the whole
	// n-client fan-out may cost at most a handful of protocol messages.
	if sentDelta > 10 {
		t.Fatalf("fan-out sent %d protocol messages for %d grants; admission is not O(1)", sentDelta, n)
	}
}

// TestAdmissionRemoteWriterNotStarved is the regression test for local
// clients passing a hold among themselves: three clients of member 0
// take W on one key in turn for 3 s, so one of them is always queued
// when the holder releases, and a client of member 1 asks for the key
// 100 ms in. Every release goes through the engine, which serves the
// remote request in its turn: the remote writer must be granted within
// 1 s, while the churn still runs, and every fence granted on the key
// must be strictly greater than the one before.
func TestAdmissionRemoteWriterNotStarved(t *testing.T) {
	const (
		churn    = 3 * time.Second
		remoteAt = 100 * time.Millisecond
		patience = time.Second
	)
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	local, remote := startServer(t, cl.Member(0)), startServer(t, cl.Member(1))

	var mu sync.Mutex
	var grants []string // appended while holding W, so in grant order
	grant := func(reply string) {
		mu.Lock()
		grants = append(grants, reply)
		mu.Unlock()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		c := dial(t, local)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < churn {
				reply, err := c.try("LOCK k W")
				if err != nil || !strings.HasPrefix(reply, "OK") {
					t.Errorf("local LOCK: %q, %v", reply, err)
					return
				}
				grant(reply)
				time.Sleep(time.Millisecond)
				if reply, err := c.try("UNLOCK k"); err != nil || reply != "OK" {
					t.Errorf("local UNLOCK: %q, %v", reply, err)
					return
				}
			}
		}()
	}

	r := dial(t, remote)
	time.Sleep(remoteAt)
	if _, err := fmt.Fprintln(r.conn, "LOCK k W"); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	_ = r.conn.SetReadDeadline(sent.Add(patience))
	granted := r.rd.Scan()
	waited, remoteGrant := time.Since(sent), r.rd.Text()
	if granted {
		grant(remoteGrant)
		_ = r.conn.SetReadDeadline(time.Time{})
		r.mustOK("UNLOCK k")
	}
	mu.Lock()
	after := len(grants)
	mu.Unlock()
	wg.Wait()
	if !granted {
		t.Fatalf("remote writer not granted within %v (%d local grants meanwhile): %v", patience, len(grants), r.rd.Err())
	}
	t.Logf("remote writer waited %v", waited)
	if !strings.HasPrefix(remoteGrant, "OK k W fence=") {
		t.Fatalf("remote LOCK: %q", remoteGrant)
	}
	if len(grants) == after {
		t.Fatalf("no local grant after the remote writer's: the churn had stopped")
	}
	for i := 1; i < len(grants); i++ {
		if prev, f := fenceOf(t, grants[i-1]), fenceOf(t, grants[i]); !prev.Less(f) {
			t.Fatalf("grant %d of %d: fence %s not above its predecessor's %s", i, len(grants), f, prev)
		}
	}
}

// gauge reads a scrape-time gauge off the registry's exposition.
func gauge(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("gauge %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("gauge %s not exported", name)
	return 0
}
