package hierlock_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// TestLiveTelemetrySpan reconstructs an acquire→grant causal path from
// one member's ring in a real 3-node TCP cluster, as `lockctl trace` does
// without --cluster: member 2 requests W on a lock whose token starts at
// member 0, so its path must show the request leaving, the token arriving
// 0 → 2, and the grant — the same shape the simulator test
// (internal/cluster.TestSimTelemetry) produces deterministically.
func TestLiveTelemetrySpan(t *testing.T) {
	members := newTCPCluster(t, 3)
	m := members[2]
	reg := metrics.NewRegistry()
	rec := trace.New(4096)
	m.SetTelemetry(hierlock.Telemetry{Registry: reg, Trace: rec})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l, err := m.Lock(ctx, "span-test", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}

	dump := rec.DumpLast(0)
	dump.Node = 2
	var p *trace.CausalPath
	for _, cp := range trace.AssembleCausal([]trace.Dump{dump}) {
		if cp.Complete && cp.Origin == 2 && cp.Steps[0].Op == trace.OpAcquire {
			p = cp
		}
	}
	if p == nil {
		t.Fatalf("no complete acquire path for node 2 in:\n%s", rec.String())
	}
	if p.Mode != hierlock.W || p.End <= p.Start {
		t.Fatalf("path: mode=%v duration=%v", p.Mode, p.End-p.Start)
	}
	// The requester's view of the token travel: delivered from 0 to 2.
	var token []trace.Entry
	for _, h := range p.Hops() {
		if h.Kind == proto.KindToken {
			token = append(token, h)
		}
	}
	if len(token) != 1 || token[0].From != 0 || token[0].To != 2 {
		t.Fatalf("token hops = %v, want 0 → 2\ntrace:\n%s", token, rec.String())
	}
	// The human rendering lockctl prints.
	if out := p.Format(false); !strings.Contains(out, "completed in") || !strings.Contains(out, "token   0 → 2") {
		t.Fatalf("path format:\n%s", out)
	}

	// The scrape agrees with the member's own accumulating counters.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if got := reg.Counter(metrics.MetricRequestsTotal, "", nil).Value(); got != 1 {
		t.Fatalf("requests = %d", got)
	}
	remote := metrics.MetricOpLatency + `_count{op="lock",outcome="remote"} 1`
	if !strings.Contains(text, remote) {
		t.Fatalf("scrape missing %q:\n%s", remote, text)
	}
	sent := m.MessagesSent()
	var memberTotal uint64
	for _, k := range metrics.Kinds {
		line := fmt.Sprintf(`%s{kind="%s"} %d`, metrics.MetricMessagesTotal, k, sent[k.String()])
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("scrape missing %q (the member's own count):\n%s", line, text)
		}
		memberTotal += sent[k.String()]
	}
	if memberTotal == 0 {
		t.Fatal("the member sent no message")
	}
	if got := reg.Counter(metrics.MetricTokenTransfers, "",
		metrics.Labels{"direction": "in", "lock": "span-test"}).Value(); got != 1 {
		t.Fatalf("token transfers in = %d", got)
	}

	// The scrape carries the per-lock and transport families by resource
	// name.
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
