package lockserver_test

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hierlock"
	"hierlock/internal/audit"
	"hierlock/internal/lockserver"
	"hierlock/internal/metrics"
	"hierlock/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("golden mismatch for %s:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// checkExposition asserts Prometheus text-format invariants: one HELP
// and one TYPE line per family before its samples, and no duplicate
// series.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	typ := make(map[string]string)
	helpCount := make(map[string]int)
	series := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			helpCount[strings.Fields(line)[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if _, dup := typ[f[2]]; dup {
				t.Errorf("duplicate TYPE for %s", f[2])
			}
			typ[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment: %q", line)
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("malformed sample: %q", line)
			}
			id := line[:sp]
			if series[id] {
				t.Errorf("duplicate series: %q", id)
			}
			series[id] = true
			name := id
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, sfx) && typ[strings.TrimSuffix(name, sfx)] == "histogram" {
					base = strings.TrimSuffix(name, sfx)
				}
			}
			if typ[base] == "" || helpCount[base] == 0 {
				t.Errorf("sample %q lacks HELP/TYPE", line)
			}
		}
	}
	for name, n := range helpCount {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines", name, n)
		}
	}
}

// TestMetricsGolden pins the /metrics exposition byte-for-byte against a
// registry with known contents.
func TestMetricsGolden(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := lockserver.New(cl.Member(0))

	reg := metrics.NewRegistry()
	reg.Counter(metrics.MetricMessagesTotal, "Protocol messages sent, by kind.",
		metrics.Labels{"kind": "request"}).Add(4)
	reg.Counter(metrics.MetricMessagesTotal, "Protocol messages sent, by kind.",
		metrics.Labels{"kind": "token"}).Add(2)
	reg.Collect(metrics.MetricStripeLocks, "Tracked locks per shard stripe of the member's lock table.",
		"gauge", func(emit func(metrics.Labels, float64)) {
			emit(metrics.Labels{"stripe": "17"}, 3)
		})
	h := reg.Histogram(metrics.MetricQueueWait,
		"Per-lock admission queue wait in seconds.", []float64{0.1, 0.5, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2)
	reg.Collect(metrics.MetricTransportQueueLen, "Per-peer outbound queue occupancy.",
		"gauge", func(emit func(metrics.Labels, float64)) {
			emit(metrics.Labels{"peer": "1"}, 5)
		})
	srv.Registry = reg

	rec := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type: %q", ct)
	}
	checkExposition(t, rec.Body.String())
	golden(t, "metrics.golden", rec.Body.Bytes())
}

// TestMetricsLive scrapes a member with real telemetry attached and
// checks the families the acceptance criteria require are present and
// the exposition stays duplicate-free.
func TestMetricsLive(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := cl.Member(1)
	reg := metrics.NewRegistry()
	m.SetTelemetry(hierlock.Telemetry{Registry: reg})

	l, err := m.Lock(context.Background(), "live", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Unlock()

	srv := lockserver.New(m)
	srv.Registry = reg
	rec := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	text := rec.Body.String()
	checkExposition(t, text)
	for _, want := range []string{
		metrics.MetricMessagesTotal + `{kind="request"}`,
		metrics.MetricRequestsTotal + " 1",
		metrics.MetricOpLatency + `_count{op="lock",outcome="remote"} 1`,
		metrics.MetricTokenHops + "_count 1",
		metrics.MetricStripeLocks + `{stripe="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("live exposition missing %q", want)
		}
	}
	if strings.Contains(text, "lock=") {
		t.Errorf("live exposition has a per-lock series:\n%s", text)
	}
}

func TestMetricsUnavailableWithoutRegistry(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := lockserver.New(cl.Member(0))
	rec := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 503 {
		t.Fatalf("metrics without registry: %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 503 {
		t.Fatalf("trace without recorder: %d, want 503", rec.Code)
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := cl.Member(0)
	rc := trace.New(64)
	var tapped []trace.Entry // admitted by the endpoint's read, on the test's goroutine
	rc.SetTap(func(es []trace.Entry) { tapped = append(tapped, es...) })
	m.SetTelemetry(hierlock.Telemetry{Trace: rc})

	l, err := m.Lock(context.Background(), "traced", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Unlock()
	// A grant made at once and released before anything else happened on
	// its stripe is one record, staged until somebody reads; the endpoint
	// below shows the acquire and the release around it all the same.
	if len(tapped) != 0 {
		t.Fatalf("taps saw %v before any read, want nothing", tapped)
	}

	srv := lockserver.New(m)
	srv.Trace = rc
	h := srv.DebugHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("trace: %d", rec.Code)
	}
	var dump trace.Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("trace json: %v\n%s", err, rec.Body.String())
	}
	if !dump.Enabled || dump.Dropped != 0 || len(dump.Entries) != 3 {
		t.Fatalf("dump: enabled=%v dropped=%d entries=%d", dump.Enabled, dump.Dropped, len(dump.Entries))
	}
	if len(tapped) != 1 || tapped[0].Op != trace.OpGranted || tapped[0].Issued == 0 || tapped[0].Released < tapped[0].At {
		t.Fatalf("taps saw %v, want the one finished operation the read admitted", tapped)
	}
	for i, op := range []trace.Op{trace.OpAcquire, trace.OpGranted, trace.OpRelease} {
		e := dump.Entries[i]
		if e.Op != op || e.Seq != uint64(i+1) || (i > 0 && e.At < dump.Entries[i-1].At) {
			t.Fatalf("dump entry %d: %v, want %v with Seq %d", i, e, op, i+1)
		}
	}
	if a, g := dump.Entries[0], dump.Entries[1]; a.Trace != g.Trace || a.Lock != g.Lock || a.Mode != g.Mode || a.Node != g.Node {
		t.Fatalf("derived acquire and its grant differ:\n%v\n%v", a, g)
	}
	// The acquire-and-grant and the release are one causal path each.
	paths := trace.AssembleCausal([]trace.Dump{dump})
	if len(paths) != 2 || !paths[0].Complete || !paths[1].Complete || len(paths[0].Steps) != 2 {
		t.Fatalf("causal paths from endpoint dump: %+v", paths)
	}

	// ?n= limits, ?enable=off pauses.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?n=1&enable=off", nil))
	var limited trace.Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &limited); err != nil {
		t.Fatal(err)
	}
	if len(limited.Entries) != 1 || limited.Enabled {
		t.Fatalf("limited dump: enabled=%v entries=%d", limited.Enabled, len(limited.Entries))
	}
	if rc.Enabled() {
		t.Fatal("enable=off must pause the recorder")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?enable=on", nil))
	if !rc.Enabled() {
		t.Fatal("enable=on must resume the recorder")
	}
}

func TestPprofEndpoints(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h := lockserver.New(cl.Member(0)).DebugHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof cmdline: %d", rec.Code)
	}
}

// TestDebugAuditEndpoint drives traffic through a member with the online
// auditor tapped into its trace stream, then reads /debug/audit: entries
// consumed, every invariant reported, zero violations.
func TestDebugAuditEndpoint(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := cl.Member(1)
	rc := trace.New(256)
	auditor := audit.New(audit.Config{Root: 0})
	rc.SetTap(auditor.Record)
	m.SetTelemetry(hierlock.Telemetry{Trace: rc})

	l, err := m.Lock(context.Background(), "audited", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Unlock()

	srv := lockserver.New(m)
	srv.Audit = auditor
	rec := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/audit", nil))
	if rec.Code != 200 {
		t.Fatalf("audit: %d", rec.Code)
	}
	var rep audit.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("audit json: %v\n%s", err, rec.Body.String())
	}
	if rep.Entries == 0 {
		t.Fatal("auditor consumed no entries")
	}
	if rep.Total != 0 {
		t.Fatalf("violations on a healthy member: %+v", rep)
	}
	for _, inv := range audit.Invariants {
		if _, ok := rep.ByCheck[inv]; !ok {
			t.Errorf("report missing invariant %q", inv)
		}
	}

	// Without an auditor the endpoint declines.
	rec = httptest.NewRecorder()
	lockserver.New(m).DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/audit", nil))
	if rec.Code != 503 {
		t.Fatalf("audit without auditor: %d, want 503", rec.Code)
	}
}

// TestDebugTraceClusterMerge runs two members behind real HTTP debug
// listeners and fetches their dumps the way `lockctl trace --cluster`
// does: both node buffers must come back attributed, and a dead peer
// must land in the errors rather than failing the merge.
func TestDebugTraceClusterMerge(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	servers := make([]*lockserver.Server, 2)
	listeners := make([]*httptest.Server, 2)
	for i := 0; i < 2; i++ {
		m := cl.Member(i)
		rc := trace.New(256)
		m.SetTelemetry(hierlock.Telemetry{Trace: rc})
		servers[i] = lockserver.New(m)
		servers[i].Trace = rc
		listeners[i] = httptest.NewServer(servers[i].DebugHandler())
		defer listeners[i].Close()
	}

	// Node 1 acquires W: its request crosses to node 0 (the root), so the
	// operation's causal path spans both buffers.
	l, err := cl.Member(1).Lock(context.Background(), "merged", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Unlock()

	peer := strings.TrimPrefix(listeners[0].URL, "http://")
	nodes, errs := lockserver.FetchAll[trace.Dump](listeners[1].Client(),
		[]string{listeners[1].URL, peer, "127.0.0.1:1"}, "/debug/trace")
	if len(nodes) != 2 {
		t.Fatalf("merged %d node buffers, want 2", len(nodes))
	}
	if nodes[0].Node != 1 || nodes[1].Node != 0 {
		t.Fatalf("dump attribution: first=%d second=%d", nodes[0].Node, nodes[1].Node)
	}
	if len(errs) != 1 {
		t.Fatalf("dead peer not reported: %+v", errs)
	}

	paths := trace.AssembleCausal(nodes)
	var found bool
	for _, p := range paths {
		if p.Origin == 1 && p.Complete && len(p.Nodes) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no complete cross-node causal path for node 1; got %d paths", len(paths))
	}
}

// TestDebugPeersFetchesNothing: the debug listener never fetches a URL a
// caller names. A ?peers= parameter on /debug/trace or /debug/locks sends
// no request to the named server and answers with the local view alone.
func TestDebugPeersFetchesNothing(t *testing.T) {
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var hits atomic.Int64
	named := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "secret-internal-body", http.StatusForbidden)
	}))
	defer named.Close()

	srv := lockserver.New(cl.Member(0))
	srv.Trace = trace.New(64)
	h := httptest.NewServer(srv.DebugHandler())
	defer h.Close()
	for _, path := range []string{"/debug/trace", "/debug/locks"} {
		resp, err := http.Get(h.URL + path + "?peers=" + url.QueryEscape(named.URL+"/admin/keys#"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.Contains(string(body), "secret-internal-body") {
			t.Errorf("%s: %s\n%s", path, resp.Status, body)
		}
		var local struct {
			Node  *int            `json:"node"`
			Nodes json.RawMessage `json:"nodes"`
		}
		if err := json.Unmarshal(body, &local); err != nil || local.Node == nil || *local.Node != 0 || local.Nodes != nil {
			t.Errorf("%s?peers= answered %s, want node 0's own view", path, body)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the debug listener sent %d requests to a server named in ?peers=", n)
	}
}
