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
	e := trace.Entry{Op: trace.OpSend, Kind: proto.KindToken, From: 0, To: 2, Lock: 7}
	if n := testing.AllocsPerRun(200, func() {
		// The calls dispatch/handle/LockWithPriority make per step.
		tel.requests.Inc()
		tel.sharedJoins.Inc()
		tel.record(grant{op: metrics.OpLock, outcome: metrics.OutcomeRemote, d: 1e6, hops: 1})
		tel.rec.Record(e)
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %.1f times per protocol step", n)
	}
}

// TestTransferCountersFollowTelemetryAndLabel: the per-lock cache of
// hierlock_token_transfers_total handles is tied to the telemetry bundle
// and to the label it was resolved under — a SetTelemetry swap counts
// into the new registry, a resource name arriving after the numeric ID
// was used counts under the name, a direction never used creates no
// series, and the cached path allocates nothing.
func TestTransferCountersFollowTelemetryAndLabel(t *testing.T) {
	value := func(reg *metrics.Registry, lock, dir string) uint64 {
		return reg.Counter(metrics.MetricTokenTransfers, "",
			metrics.Labels{"lock": lock, "direction": dir}).Value()
	}
	regA, regB := metrics.NewRegistry(), metrics.NewRegistry()
	telA, telB := &telemetry{reg: regA}, &telemetry{reg: regB}
	ls := &lockState{id: 7}

	ls.countTransfer(&telemetry{}, transferIn) // no registry: no-op
	ls.countTransfer(telA, transferIn)
	ls.countTransfer(telA, transferIn)
	var sb strings.Builder
	if err := regA.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `direction="out"`) {
		t.Fatalf("an unused direction got a series:\n%s", sb.String())
	}
	ls.countTransfer(telA, transferOut)
	if in, out := value(regA, "7", "in"), value(regA, "7", "out"); in != 2 || out != 1 {
		t.Fatalf("registry A by ID: in=%d out=%d, want 2 and 1", in, out)
	}

	ls.res = "fares/row7"
	ls.countTransfer(telA, transferIn)
	if id, named := value(regA, "7", "in"), value(regA, "fares/row7", "in"); id != 2 || named != 1 {
		t.Fatalf("after the name arrived: by ID %d, by name %d, want 2 and 1", id, named)
	}

	ls.countTransfer(telB, transferIn)
	if a, b := value(regA, "fares/row7", "in"), value(regB, "fares/row7", "in"); a != 1 || b != 1 {
		t.Fatalf("after the telemetry swap: registry A %d, registry B %d, want 1 and 1", a, b)
	}

	if n := testing.AllocsPerRun(200, func() { ls.countTransfer(telB, transferIn) }); n != 0 {
		t.Fatalf("cached transfer count allocated %.1f times", n)
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
