package hierlock_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
	"hierlock/internal/trace"
)

// TestLiveTelemetrySpan reconstructs an acquire→grant span from a real
// 3-node TCP cluster: member 2 requests W on a lock whose token starts
// at member 0, so its trace must show the request leaving, the token
// arriving 0 → 2, and the grant — the same shape the simulator test
// (internal/cluster.TestSimTelemetry) produces deterministically.
func TestLiveTelemetrySpan(t *testing.T) {
	members := newTCPCluster(t, 3)
	m := members[2]
	reg := metrics.NewRegistry()
	rec := trace.New(4096)
	m.SetTelemetry(hierlock.Telemetry{
		Registry:       reg,
		Trace:          rec,
		NetLatencyBase: time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l, err := m.Lock(ctx, "span-test", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}

	spans := trace.Assemble(rec.Entries())
	var sp *trace.Span
	for _, s := range spans {
		if s.Complete && s.Node == 2 {
			sp = s
		}
	}
	if sp == nil {
		t.Fatalf("no complete span for node 2 in:\n%s", rec.String())
	}
	if sp.Mode != hierlock.W || sp.Duration() <= 0 {
		t.Fatalf("span: mode=%v duration=%v", sp.Mode, sp.Duration())
	}
	// The requester's view of the token travel: delivered from 0 to 2.
	path := sp.TokenPath()
	if len(path) < 2 || path[len(path)-1] != 2 || path[0] != 0 {
		t.Fatalf("token path = %v, want 0 → … → 2\ntrace:\n%s", path, rec.String())
	}
	// The human rendering lockctl prints.
	out := sp.Format(false)
	if !strings.Contains(out, "granted in") || !strings.Contains(out, "token path: 0 → 2") {
		t.Fatalf("span format:\n%s", out)
	}

	// Registry agreement with the member's own accumulating counters.
	if got := reg.Counter(metrics.MetricRequestsTotal, "", nil).Value(); got != 1 {
		t.Fatalf("requests = %d", got)
	}
	if got := reg.Counter(metrics.MetricAcquiresTotal, "", nil).Value(); got != 1 {
		t.Fatalf("acquires = %d", got)
	}
	if lat := reg.Histogram(metrics.MetricRequestLatency, "", nil, nil); lat.Count() != 1 {
		t.Fatalf("latency observations = %d", lat.Count())
	}
	sent := m.MessagesSent()
	var regTotal, memberTotal uint64
	for _, k := range metrics.Kinds {
		v := reg.Counter(metrics.MetricMessagesTotal, "", metrics.Labels{"kind": k.String()}).Value()
		if v != sent[k.String()] {
			t.Fatalf("kind %v: registry %d != member %d", k, v, sent[k.String()])
		}
		regTotal += v
		memberTotal += sent[k.String()]
	}
	if regTotal == 0 || regTotal != memberTotal {
		t.Fatalf("message totals: registry %d, member %d", regTotal, memberTotal)
	}
	if got := reg.Counter(metrics.MetricTokenTransfers, "",
		metrics.Labels{"direction": "in", "lock": "span-test"}).Value(); got != 1 {
		t.Fatalf("token transfers in = %d", got)
	}

	// The scrape is well-formed and carries the per-lock and transport
	// families by resource name.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		metrics.MetricTokenHeld + `{lock="span-test"} 1`,
		metrics.MetricLockQueueDepth + `{lock="span-test"} 0`,
		metrics.MetricTransportBytes + `{direction="sent"}`,
		metrics.MetricTransportFrames + `{direction="recv"}`,
		metrics.MetricTransportPeerState,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
}

// TestTelemetryTransportBytesCounted asserts the wire-volume counters
// move once TCP traffic flows.
func TestTelemetryTransportBytesCounted(t *testing.T) {
	members := newTCPCluster(t, 2)
	m := members[1]
	reg := metrics.NewRegistry()
	m.SetTelemetry(hierlock.Telemetry{Registry: reg})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l, err := m.Lock(ctx, "bytes", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Unlock()

	// The writer goroutine counts a frame after write(2) returns, and the
	// peer's reply can beat it back: poll the scrape instead of reading it
	// the moment the grant returns.
	zeroSent := []string{
		metrics.MetricTransportBytes + `{direction="sent"} 0`,
		metrics.MetricTransportFrames + `{direction="sent"} 0`,
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		text := sb.String()
		if !strings.Contains(text, zeroSent[0]) && !strings.Contains(text, zeroSent[1]) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("bytes or frames sent still zero 2 s after a TCP acquisition:\n%s", text)
		}
	}
}
