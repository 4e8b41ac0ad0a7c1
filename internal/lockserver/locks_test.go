package lockserver_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/introspect"
	"hierlock/internal/lockserver"
	"hierlock/internal/trace"
)

// TestDebugLocksGolden pins the /debug/locks JSON shape (the lockctl
// locks wire format) and the rendered single-node report for a held
// exclusive lock. A single-member cluster is fully deterministic: no
// waiters, no Lamport stamps, no wall-clock fields in the output.
func TestDebugLocksGolden(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := cl.Member(0)
	l, err := m.Lock(context.Background(), "orders/eu", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Unlock()

	srv := lockserver.New(m)
	rr := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/locks", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /debug/locks = %d: %s", rr.Code, rr.Body.String())
	}
	golden(t, "locks.golden", rr.Body.Bytes())

	var inv introspect.NodeInventory
	if err := json.Unmarshal(rr.Body.Bytes(), &inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Locks) != 1 || !inv.Locks[0].Token || inv.Locks[0].Held != "W" {
		t.Fatalf("inventory = %+v", inv)
	}
	// The text `lockctl locks` renders from the same inventory.
	golden(t, "locks_text.golden", []byte(introspect.FormatNode(inv)))
}

// TestDebugLocksClusterMerge stands up two members' debug listeners,
// blocks member 0 behind member 1's exclusive hold, and checks that
// merging their inventories the way lockctl does (FetchAll, then Merge)
// assembles the cluster view with the conflict edge (and no false
// deadlock), and skips a third address whose listener is closed.
func TestDebugLocksClusterMerge(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	l, err := cl.Member(1).Lock(context.Background(), "contended", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		l0, err := cl.Member(0).Lock(ctx, "contended", hierlock.W)
		if l0 != nil {
			l0.Unlock()
		}
		errc <- err
	}()
	// Wait for member 0's waiter slot to register.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inv := cl.Member(0).Inventory()
		waiting := false
		for _, li := range inv.Locks {
			if li.Waiter != nil {
				waiting = true
			}
		}
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("member 0 never registered a waiter")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ts0 := httptest.NewServer(lockserver.New(cl.Member(0)).DebugHandler())
	defer ts0.Close()
	ts1 := httptest.NewServer(lockserver.New(cl.Member(1)).DebugHandler())
	defer ts1.Close()

	merge := func(addrs ...string) (introspect.Cluster, map[string]string) {
		nodes, errs := lockserver.FetchAll[introspect.NodeInventory](http.DefaultClient, addrs, "/debug/locks")
		return introspect.Merge(nodes), errs
	}
	c, errs := merge(ts1.URL, ts0.URL)
	if len(c.Nodes) != 2 {
		t.Fatalf("merged %d nodes, want 2", len(c.Nodes))
	}
	if len(errs) != 0 {
		t.Fatalf("merge errors: %v", errs)
	}
	if len(c.WaitFor.Edges) != 1 {
		t.Fatalf("wait-for edges = %+v, want the 0->1 conflict", c.WaitFor.Edges)
	}
	e := c.WaitFor.Edges[0]
	if e.Waiter != 0 || e.Holder != 1 || e.Wants != "W" || e.Holds != "W" {
		t.Fatalf("edge = %+v", e)
	}
	if e.WaitNS <= 0 {
		t.Fatalf("edge carries no wait duration: %+v", e)
	}
	if e.Resource != "contended" {
		t.Fatalf("edge resource = %q", e.Resource)
	}
	if c.WaitFor.Deadlocked() {
		t.Fatal("plain contention flagged as deadlock")
	}

	// Unreachable peers degrade to a partial view, not a failure.
	partial, errs := merge(ts1.URL, "127.0.0.1:1")
	if len(partial.Nodes) != 1 || len(errs) != 1 {
		t.Fatalf("partial merge = %d nodes, errors %v", len(partial.Nodes), errs)
	}
	// A third member whose debug listener is gone: the merge skips it,
	// names it, and keeps the live members' view whole.
	t.Run("closed-listener", func(t *testing.T) {
		ts2 := httptest.NewServer(lockserver.New(cl.Member(1)).DebugHandler())
		gone := ts2.URL
		ts2.Close()
		c, errs := merge(ts1.URL, ts0.URL, gone)
		if len(c.Nodes) != 2 {
			t.Fatalf("merged %d nodes, want 2", len(c.Nodes))
		}
		if _, named := errs[gone]; len(errs) != 1 || !named {
			t.Fatalf("merge errors = %v, want one naming %s", errs, gone)
		}
		if e := c.WaitFor.Edges; len(e) != 1 || e[0].Waiter != 0 || e[0].Holder != 1 {
			t.Fatalf("wait-for edges = %+v, want the 0->1 conflict", e)
		}
	})

	l.Unlock()
	if err := <-errc; err != nil {
		t.Fatalf("member 0 lock after release: %v", err)
	}
}

// TestDebugIncidentsEndpoint drives /debug/incidents: a GET lists and
// never writes (a trigger parameter is 405, as is any method but GET and
// POST), a POST writes a manual incident holding what the member did, and
// a file of it is fetched by bare names only.
func TestDebugIncidentsEndpoint(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := cl.Member(0)
	dir := t.TempDir()
	rec := trace.New(64)
	bb := introspect.NewRecorder(0, 0)
	if err := bb.EnableAutoDump(dir, time.Hour); err != nil {
		t.Fatal(err)
	}
	m.SetTelemetry(hierlock.Telemetry{Trace: rec, Blackbox: bb})
	l, err := m.Lock(context.Background(), "orders/eu", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}

	srv := lockserver.New(m)
	srv.Trace = rec
	srv.Incidents = bb
	h := srv.DebugHandler()
	do := func(method, path string) (*httptest.ResponseRecorder, lockserver.IncidentsView) {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		var v lockserver.IncidentsView
		if rr.Code == http.StatusOK && rr.Header().Get("Content-Type") == "application/json" {
			if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
		}
		return rr, v
	}

	if rr, v := do("GET", "/debug/incidents"); rr.Code != http.StatusOK || len(v.Incidents) != 0 || v.Dir != dir {
		t.Fatalf("GET = %d, %+v", rr.Code, v)
	}
	for _, req := range [][2]string{{"GET", "/debug/incidents?trigger=1"}, {"PUT", "/debug/incidents"}, {"DELETE", "/debug/incidents"}} {
		if rr, _ := do(req[0], req[1]); rr.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", req[0], req[1], rr.Code)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a request that may not write wrote %d entries", len(entries))
	}

	rr, v := do("POST", "/debug/incidents")
	if rr.Code != http.StatusOK || !strings.HasSuffix(v.Triggered, "-"+introspect.ReasonManual) {
		t.Fatalf("POST = %d, %+v", rr.Code, v)
	}
	if _, again := do("POST", "/debug/incidents"); again.Triggered != "" {
		t.Fatalf("a second manual incident within the interval: %+v", again)
	}
	cl.Close() // waits for the incident, cutting its CPU profile short
	_, v = do("GET", "/debug/incidents")
	if len(v.Incidents) != 1 || v.Incidents[0].Name != filepath.Base(v.Incidents[0].Name) || v.Written[introspect.ReasonManual] != 1 {
		t.Fatalf("listing after the POST = %+v", v)
	}
	for _, reason := range introspect.Reasons {
		if _, ok := v.Written[reason]; !ok {
			t.Fatalf("counters not pre-registered at zero: %v", v.Written)
		}
	}

	// The trace file holds the pair made before the trigger: the POST
	// pulled it in.
	q := url.Values{"incident": {v.Incidents[0].Name}, "file": {"trace.json"}}
	rr, _ = do("GET", "/debug/incidents?"+q.Encode())
	var d trace.Dump
	if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &d) != nil {
		t.Fatalf("trace.json fetch = %d: %s", rr.Code, rr.Body.String())
	}
	if len(d.Entries) != 3 || d.Entries[1].Op != trace.OpGranted {
		t.Fatalf("trace.json = %+v, want the pair's acquire, grant and release", d.Entries)
	}
	for _, bad := range []url.Values{
		{"incident": {".."}, "file": {"secrets.json"}},
		{"incident": {v.Incidents[0].Name}, "file": {"../../secrets.json"}},
	} {
		if rr, _ := do("GET", "/debug/incidents?"+bad.Encode()); rr.Code == http.StatusOK {
			t.Fatalf("traversal %v served", bad)
		}
	}
}

// TestDebugIncidentsUnattached: no recorder → 503, like the other
// optional debug surfaces.
func TestDebugIncidentsUnattached(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rr := httptest.NewRecorder()
	lockserver.New(cl.Member(0)).DebugHandler().ServeHTTP(rr, httptest.NewRequest("POST", "/debug/incidents", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("unattached incidents = %d, want 503", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "no incident recorder") {
		t.Fatalf("body = %q", rr.Body.String())
	}
}
