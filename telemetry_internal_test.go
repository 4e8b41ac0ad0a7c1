package hierlock

import (
	"fmt"
	"strings"
	"testing"

	"hierlock/internal/metrics"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// TestDisabledTelemetryAllocatesNothing guards the disabled fast path:
// a member that never got SetTelemetry carries a zero telemetry struct
// (nil registry, nil recorder, nil handles), and every instrumentation
// call a protocol step makes must then add zero allocations.
func TestDisabledTelemetryAllocatesNothing(t *testing.T) {
	var tel telemetry
	var c staged
	e := trace.Entry{Op: trace.OpSend, Kind: proto.KindToken, From: 0, To: 2, Lock: 7}
	if n := testing.AllocsPerRun(200, func() {
		// The calls dispatch/handle/LockWithPriority make per step.
		tel.requests.Inc()
		tel.sharedJoins.Inc()
		c.stageGrant(metrics.OpLock, metrics.OutcomeRemote, 1e6, 1)
		tel.rec.Record(e)
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %.1f times per protocol step", n)
	}
}

// TestMessagesSentNamesEveryKind: hierlock_messages_sent_total shows every
// kind a member sends from the first scrape, recovery and membership
// frames under their own names, and "unknown" stays for kinds out of range.
func TestMessagesSentNamesEveryKind(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	reg := metrics.NewRegistry()
	m.SetTelemetry(Telemetry{Registry: reg})
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	sample := func(kind string, n int) string {
		return fmt.Sprintf("%s{kind=%q} %d\n", metrics.MetricMessagesTotal, kind, n)
	}
	kinds := []string{"request", "grant", "token", "release", "freeze",
		"probe", "claim", "recovered", "join", "join_ack", "leave", "leave_ack", "unknown"}
	text := scrape()
	for _, k := range kinds {
		if !strings.Contains(text, sample(k, 0)) {
			t.Errorf("first scrape lacks %q", sample(k, 0))
		}
	}

	// Node 7 does not exist: the sends fail, and count all the same.
	m.sendRecovery(proto.Message{Kind: proto.KindProbe, From: 0, To: 7})
	m.sendRecovery(proto.Message{Kind: proto.KindClaim, From: 0, To: 7})
	m.sendMembership(&proto.Message{Kind: proto.KindJoin, From: 0, To: 7})
	m.sendMembership(&proto.Message{Kind: proto.KindLeave, From: 0, To: 7})
	text = scrape()
	for _, want := range []string{sample("probe", 1), sample("claim", 1),
		sample("join", 1), sample("leave", 1), sample("unknown", 0)} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape lacks %q:\n%s", want, text)
		}
	}
	if st := m.Stats(); st.MessagesSent != 4 {
		t.Errorf("Stats().MessagesSent = %d, want 4", st.MessagesSent)
	}
}
