package lockserver_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/introspect"
	"hierlock/internal/lockserver"
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
// deadlock).
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

	l.Unlock()
	if err := <-errc; err != nil {
		t.Fatalf("member 0 lock after release: %v", err)
	}
}

// TestDebugBlackboxEndpoint drives the flight-recorder endpoint: ring
// view, manual trigger, dump listing and retrieval, and the traversal
// guard on ?dump names.
func TestDebugBlackboxEndpoint(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	dir := t.TempDir()
	bb := introspect.NewRecorder(0, 16)
	if err := bb.EnableAutoDump(dir, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	bb.Record(introspect.Event{Type: introspect.EvGrant, Node: 0, Lock: 7})
	bb.Record(introspect.Event{Type: introspect.EvEvict, Node: 0, N: 3})

	srv := lockserver.New(cl.Member(0))
	srv.Blackbox = bb
	srv.BlackboxDir = dir
	h := srv.DebugHandler()

	get := func(path string) (*httptest.ResponseRecorder, lockserver.BlackboxView) {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		var v lockserver.BlackboxView
		if rr.Code == http.StatusOK {
			if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return rr, v
	}

	rr, view := get("/debug/blackbox")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /debug/blackbox = %d", rr.Code)
	}
	if view.Events != 2 || len(view.Ring) != 2 || len(view.Files) != 0 {
		t.Fatalf("view = %+v", view)
	}
	for _, reason := range introspect.Reasons {
		if n, ok := view.Dumps[reason]; !ok || n != 0 {
			t.Fatalf("dumps not pre-registered at zero: %v", view.Dumps)
		}
	}
	if view.Ring[1].Type != "evict_sweep" || view.Ring[1].N != 3 {
		t.Fatalf("ring = %+v", view.Ring)
	}

	// ?n limits the ring view.
	if _, v := get("/debug/blackbox?n=1"); len(v.Ring) != 1 || v.Ring[0].Type != "evict_sweep" {
		t.Fatalf("?n=1 ring = %+v", v.Ring)
	}

	// Manual trigger writes a dump and shows up in the listing.
	if rr, v := get("/debug/blackbox?trigger=1"); rr.Code != http.StatusOK || len(v.Files) != 1 ||
		v.Dumps[introspect.ReasonManual] != 1 {
		t.Fatalf("trigger = %d, %+v", rr.Code, v)
	}
	_, v := get("/debug/blackbox")
	if len(v.Files) != 1 {
		t.Fatalf("files = %+v", v.Files)
	}

	// Retrieve the dump by name.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/blackbox?dump="+url.QueryEscape(v.Files[0].Name), nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("dump fetch = %d: %s", rr.Code, rr.Body.String())
	}
	var d introspect.Dump
	if err := json.Unmarshal(rr.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != introspect.ReasonManual || len(d.Events) != 2 {
		t.Fatalf("dump = %+v", d)
	}

	// Path traversal in ?dump is rejected.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/blackbox?dump="+url.QueryEscape("../secrets.json"), nil))
	if rr.Code == http.StatusOK {
		t.Fatal("traversal name served")
	}
}

// TestDebugBlackboxUnattached: no recorder → 503, like the other
// optional debug surfaces.
func TestDebugBlackboxUnattached(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rr := httptest.NewRecorder()
	lockserver.New(cl.Member(0)).DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/blackbox", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("unattached blackbox = %d, want 503", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "no flight recorder") {
		t.Fatalf("body = %q", rr.Body.String())
	}
}
