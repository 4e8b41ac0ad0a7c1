package lockserver_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/audit"
	"hierlock/internal/lockserver"
	"hierlock/internal/metrics"
	"hierlock/internal/trace"
)

// startSessionServer runs a lockserver with the session tier tuned for
// tests: short leases, fast sweeps, a registry for counter assertions.
func startSessionServer(t *testing.T, m *hierlock.Member, ttl time.Duration, maxWaiters int) (string, *metrics.Registry) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := lockserver.New(m)
	srv.Timeout = 10 * time.Second
	srv.LeaseTTL = ttl
	srv.MaxWaiters = maxWaiters
	srv.SweepInterval = ttl / 5
	srv.Registry = reg
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), reg
}

// fenceOf extracts the fencing token from an OK grant reply.
func fenceOf(t *testing.T, reply string) hierlock.FenceToken {
	t.Helper()
	for _, f := range strings.Fields(reply) {
		if rest, ok := strings.CutPrefix(f, "fence="); ok {
			tok, err := hierlock.ParseFence(rest)
			if err != nil {
				t.Fatalf("bad fence in %q: %v", reply, err)
			}
			return tok
		}
	}
	t.Fatalf("no fence in reply %q", reply)
	return hierlock.FenceToken{}
}

func TestSessionVerbs(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr, _ := startSessionServer(t, cl.Member(0), time.Minute, 0)
	c := dial(t, addr)

	if resp := c.cmd("SESSION RENEW"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("renew without session: %q", resp)
	}
	if resp := c.cmd("SESSION CLOSE"); !strings.HasPrefix(resp, "ERR no session") {
		t.Fatalf("close without session: %q", resp)
	}
	c.mustOK("LOCK pre W")
	if resp := c.cmd("SESSION OPEN job7"); !strings.HasPrefix(resp, "ERR locks held") {
		t.Fatalf("open with anonymous locks: %q", resp)
	}
	c.mustOK("UNLOCK pre")

	got := c.mustOK("SESSION OPEN job7 30s")
	if !strings.Contains(got, "session job7") || !strings.Contains(got, "adopted=false") {
		t.Fatalf("open reply: %q", got)
	}
	if resp := c.cmd("SESSION OPEN other"); !strings.HasPrefix(resp, "ERR session job7 already open") {
		t.Fatalf("double open: %q", resp)
	}
	if got := c.mustOK("SESSION RENEW"); !strings.Contains(got, "job7") {
		t.Fatalf("renew reply: %q", got)
	}
	c.mustOK("LOCK a W")
	if got := c.mustOK("SESSIONS"); !strings.Contains(got, "job7:attached:locks=1") {
		t.Fatalf("sessions reply: %q", got)
	}
	if got := c.mustOK("SESSION CLOSE"); !strings.Contains(got, "released=1") {
		t.Fatalf("close reply: %q", got)
	}
	// Back to anonymous; the lock is gone.
	if got := c.mustOK("HELD"); strings.TrimSpace(got) != "OK" {
		t.Fatalf("held after close: %q", got)
	}
	if got := c.mustOK("SESSIONS"); strings.TrimSpace(got) != "OK 0" {
		t.Fatalf("sessions after close: %q", got)
	}
	if resp := c.cmd("SESSION OPEN job7 nonsense"); !strings.HasPrefix(resp, "ERR bad ttl") {
		t.Fatalf("bad ttl: %q", resp)
	}
	// Second counts whose nanoseconds overflow a Duration are clamped to
	// MaxTTL (10 × the 1m default) like any TTL above it: multiplied
	// unchecked, the first wrapped to 290.448384ms and the second to a
	// negative TTL that got the default.
	for _, secs := range []string{"18446744074", "9223372037"} {
		if got := c.mustOK("SESSION OPEN huge " + secs); !strings.Contains(got, "ttl=10m0s") {
			t.Fatalf("open with ttl %s: %q, want ttl=10m0s", secs, got)
		}
		c.mustOK("SESSION CLOSE")
	}
}

// TestSessionReconnectKeepsLocks: a named session's locks survive the
// connection; a reconnecting client re-adopts them, handles intact.
func TestSessionReconnectKeepsLocks(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr, _ := startSessionServer(t, cl.Member(0), time.Minute, 0)

	c1 := dial(t, addr)
	c1.mustOK("SESSION OPEN etl")
	grant := c1.mustOK("LOCK fares/r1 W")
	f1 := fenceOf(t, grant)
	_ = c1.conn.Close() // drop without UNLOCK or SESSION CLOSE

	// The lock is still held — a second client cannot take it...
	c2 := dial(t, addr)
	blocked := make(chan string, 1)
	go func() {
		b := dial(t, addr)
		blocked <- b.cmd("LOCK fares/r1 W")
	}()
	select {
	case resp := <-blocked:
		t.Fatalf("writer acquired against a live lease: %q", resp)
	case <-time.After(200 * time.Millisecond):
	}

	// ...but the owner can reconnect and adopt it back.
	got := c2.mustOK("SESSION OPEN etl")
	if !strings.Contains(got, "adopted=true") || !strings.Contains(got, "locks=1") {
		t.Fatalf("adopt reply: %q", got)
	}
	held := c2.mustOK("HELD")
	if !strings.Contains(held, "fares/r1=W@"+f1.String()) {
		t.Fatalf("held after adopt: %q (want fence %s)", held, f1)
	}
	c2.mustOK("UNLOCK fares/r1")
	if resp := <-blocked; !strings.HasPrefix(resp, "OK") {
		t.Fatalf("waiter after release: %q", resp)
	}
}

// TestLeaseExpiryFencing is the PR's acceptance scenario on the live
// path: a client acquires W and dies silently; within 2×TTL the lease
// sweeper reaps the lock, a second client acquires the same resource,
// and its fencing token is strictly larger than the dead client's.
func TestLeaseExpiryFencing(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const ttl = 500 * time.Millisecond
	addr, reg := startSessionServer(t, cl.Member(0), ttl, 0)

	c1 := dial(t, addr)
	c1.mustOK("SESSION OPEN victim")
	f1 := fenceOf(t, c1.mustOK("LOCK acct/42 W"))
	_ = c1.conn.Close() // the client process dies mid-hold
	died := time.Now()

	// The second client's LOCK waits at the member and is granted the
	// moment the sweeper reaps the dead lease.
	c2 := dial(t, addr)
	reply := c2.cmd("LOCK acct/42 W")
	waited := time.Since(died)
	if !strings.HasPrefix(reply, "OK") {
		t.Fatalf("post-reap lock: %q", reply)
	}
	if waited > 2*ttl {
		t.Fatalf("reap took %v, want within 2×TTL = %v", waited, 2*ttl)
	}
	f2 := fenceOf(t, reply)
	if !f1.Less(f2) {
		t.Fatalf("fence did not advance across the reap: %s then %s", f1, f2)
	}
	if got := reg.Counter(metrics.MetricSessionsExpired, "", nil).Value(); got != 1 {
		t.Fatalf("sessions expired = %d, want 1", got)
	}
	// The sweeper counts the reaped locks after releasing them, and the
	// release is what woke c2: give the counter a moment to follow.
	reaped := reg.Counter(metrics.MetricSessionLocksReaped, "", nil)
	for deadline := time.Now().Add(ttl); reaped.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := reaped.Value(); got != 1 {
		t.Fatalf("locks reaped = %d, want 1", got)
	}
	c2.mustOK("UNLOCK acct/42")
}

// TestLeaseChaosAcrossMembers is the lease acceptance scenario on the
// code that ships, three members wide: 12 named clients over three
// lockservers contend for one W lock under TTL leases, three of them
// die mid-hold (socket closed on their first grant, no UNLOCK), and
// only the lease sweeper can free the lock for everyone queued behind.
// All nine survivors must finish their cycles, the fences appended while
// holding must be strictly increasing along the exclusive chain, exactly
// the three dead sessions must expire with exactly their holds reaped,
// and one auditor watching every member's trace must see no violation.
//
// A parked LOCK does not renew its session's lease and the connection
// answers in order, so a client keeps its lease the way a real one must:
// Server.Timeout is half the TTL, and a LOCK that times out is followed
// by SESSION RENEW and a retry.
func TestLeaseChaosAcrossMembers(t *testing.T) {
	const (
		members = 3
		clients = 12
		cycles  = 3
		nDoomed = 3 // clients 0..2, one per member
		ttl     = 800 * time.Millisecond
	)
	cl, err := hierlock.NewCluster(members)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rec := trace.New(1 << 10)
	auditor := audit.New(audit.Config{Root: 0})
	rec.SetTap(auditor.Record)
	var addrs [members]string
	var regs [members]*metrics.Registry
	for i := range addrs {
		cl.Member(i).SetTelemetry(hierlock.Telemetry{Trace: rec})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = metrics.NewRegistry()
		srv := lockserver.New(cl.Member(i))
		srv.Timeout = ttl / 2
		srv.LeaseTTL = ttl
		srv.SweepInterval = ttl / 5
		srv.Registry = regs[i]
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs[i] = ln.Addr().String()
	}

	var (
		mu       sync.Mutex
		fences   []hierlock.FenceToken
		finished int
	)
	giveUp := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dial(t, addrs[i%members])
			c.mustOK(fmt.Sprintf("SESSION OPEN client%d", i))
			for round := 0; round < cycles; round++ {
				reply := c.cmd("LOCK hot W")
				for !strings.HasPrefix(reply, "OK") {
					if !strings.Contains(reply, "deadline exceeded") {
						t.Errorf("client %d: LOCK: %q", i, reply)
						return
					}
					if time.Now().After(giveUp) {
						t.Errorf("client %d timed out in round %d: the lock was never freed", i, round)
						return
					}
					c.mustOK("SESSION RENEW")
					reply = c.cmd("LOCK hot W")
				}
				mu.Lock()
				fences = append(fences, fenceOf(t, reply))
				mu.Unlock()
				if i < nDoomed {
					_ = c.conn.Close() // the client process dies holding W
					return
				}
				c.mustOK("UNLOCK hot")
			}
			c.mustOK("SESSION CLOSE")
			mu.Lock()
			finished++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if finished != clients-nDoomed {
		t.Fatalf("survivors finished = %d, want %d", finished, clients-nDoomed)
	}
	if want := (clients-nDoomed)*cycles + nDoomed; len(fences) != want {
		t.Fatalf("grants = %d, want %d", len(fences), want)
	}
	// W is exclusive: the grants form one causal chain across the three
	// members, so the fences minted along it must be strictly increasing.
	for i := 1; i < len(fences); i++ {
		if !fences[i-1].Less(fences[i]) {
			t.Fatalf("fence %d not above its predecessor: %s then %s", i, fences[i-1], fences[i])
		}
	}

	// The last grant of the run may be a doomed client's: give the
	// sweeper its TTL plus a sweep to reap it.
	sum := func(name string) (n uint64) {
		for _, reg := range regs {
			n += reg.Counter(name, "", nil).Value()
		}
		return n
	}
	for deadline := time.Now().Add(3 * ttl); sum(metrics.MetricSessionLocksReaped) < nDoomed && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if got := sum(metrics.MetricSessionsExpired); got != nDoomed {
		t.Fatalf("sessions expired = %d, want %d", got, nDoomed)
	}
	if got := sum(metrics.MetricSessionLocksReaped); got != nDoomed {
		t.Fatalf("locks reaped = %d, want %d (one per doomed grant)", got, nDoomed)
	}
	if got := sum(metrics.MetricSessionsClosed); got != clients-nDoomed {
		t.Fatalf("sessions closed = %d, want %d", got, clients-nDoomed)
	}
	rec.Len() // a read of the shared ring admits what every member still stages
	if n := auditor.Violations(); n != 0 {
		t.Fatalf("auditor flagged %d violations: %+v", n, auditor.Snapshot().Violations)
	}
}

// TestSessionExpiredReply: commands on a connection whose named session
// was reaped answer ERR session expired once, then the connection works
// again as a fresh anonymous session.
func TestSessionExpiredReply(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const ttl = 150 * time.Millisecond
	addr, _ := startSessionServer(t, cl.Member(0), ttl, 0)

	c := dial(t, addr)
	c.mustOK("SESSION OPEN brief")
	// Go silent past the lease: the attached connection stops touching.
	time.Sleep(3 * ttl)
	if resp := c.cmd("HELD"); !strings.HasPrefix(resp, "ERR session expired") {
		t.Fatalf("command on expired session: %q", resp)
	}
	// The connection fell back to anonymous and is fully usable.
	c.mustOK("LOCK x W")
	c.mustOK("UNLOCK x")
}

// TestAdmissionBusyProtocol: the -max-waiters cap surfaces as ERR busy.
func TestAdmissionBusyProtocol(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr, reg := startSessionServer(t, cl.Member(0), time.Minute, 1)

	holder := dial(t, addr)
	holder.mustOK("LOCK hot W")
	waiter := dial(t, addr)
	blocked := make(chan string, 1)
	go func() { blocked <- waiter.cmd("LOCK hot W") }()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(metrics.MetricAdmissionEnqueued, "", nil).Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	over := dial(t, addr)
	if resp := over.cmd("LOCK hot W"); !strings.HasPrefix(resp, "ERR busy") {
		t.Fatalf("over-cap lock: %q", resp)
	}
	holder.mustOK("UNLOCK hot")
	if resp := <-blocked; !strings.HasPrefix(resp, "OK") {
		t.Fatalf("queued waiter: %q", resp)
	}
}
