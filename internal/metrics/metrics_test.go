package metrics

import (
	"strings"
	"testing"
	"time"

	"hierlock/internal/proto"
)

func TestMessages(t *testing.T) {
	var m Messages
	m.Count(proto.KindRequest)
	m.Count(proto.KindRequest)
	m.Count(proto.KindToken)
	if m.ByKind[proto.KindRequest] != 2 || m.ByKind[proto.KindToken] != 1 {
		t.Fatalf("counts = %v", m.ByKind)
	}
	if m.Total() != 3 {
		t.Fatalf("total = %d", m.Total())
	}
	m.Count(proto.Kind(200)) // out of range lands in the overflow bucket
	if m.Unknown != 1 || m.Total() != 4 {
		t.Fatalf("out-of-range kind must be counted as unknown: unknown=%d total=%d",
			m.Unknown, m.Total())
	}
}

// TestMessagesNeverUncounted proves no Kind value — the full uint8
// domain — is ever silently discarded: every Count call moves Total.
func TestMessagesNeverUncounted(t *testing.T) {
	var m Messages
	for k := 0; k < 256; k++ {
		before := m.Total()
		m.Count(proto.Kind(k))
		if m.Total() != before+1 {
			t.Fatalf("kind %d was not counted (total stayed %d)", k, before)
		}
	}
	if m.Total() != 256 {
		t.Fatalf("total = %d, want 256", m.Total())
	}
	if want := uint64(256 - len(m.ByKind)); m.Unknown != want {
		t.Fatalf("unknown = %d, want %d", m.Unknown, want)
	}
}

func TestLatency(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Factor(time.Second) != 0 {
		t.Fatal("empty latency must report zeros")
	}
	l.Observe(100 * time.Millisecond)
	l.Observe(300 * time.Millisecond)
	if l.Mean() != 200*time.Millisecond {
		t.Fatalf("mean = %v", l.Mean())
	}
	if l.Min != 100*time.Millisecond || l.Max != 300*time.Millisecond {
		t.Fatalf("min/max = %v/%v", l.Min, l.Max)
	}
	if got := l.Factor(100 * time.Millisecond); got < 1.99 || got > 2.01 {
		t.Fatalf("factor = %v", got)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Fig 5", "nodes")
	tb.Add(10, "ours", 2.5)
	tb.Add(10, "naimi", 3.5)
	tb.Add(5, "ours", 2.0)
	tb.Add(10, "ours", 2.6) // overwrite

	if cols := tb.Columns(); len(cols) != 2 || cols[0] != "ours" || cols[1] != "naimi" {
		t.Fatalf("columns = %v", cols)
	}
	if v, ok := tb.Value(10, "ours"); !ok || v != 2.6 {
		t.Fatalf("Value(10, ours) = %v %v", v, ok)
	}
	if _, ok := tb.Value(99, "ours"); ok {
		t.Fatal("missing x must report !ok")
	}
	if xs := tb.Xs(); len(xs) != 2 || xs[0] != 5 || xs[1] != 10 {
		t.Fatalf("Xs = %v", xs)
	}

	s := tb.String()
	if !strings.Contains(s, "# Fig 5") || !strings.Contains(s, "2.600") {
		t.Fatalf("render:\n%s", s)
	}
	// The missing naimi cell at x=5 renders as "-".
	if !strings.Contains(s, "-") {
		t.Fatalf("missing cell must render as dash:\n%s", s)
	}
	// Rows sorted by x: x=5 line appears before x=10 line.
	if strings.Index(s, "\n5") > strings.Index(s, "\n10") {
		t.Fatalf("rows not sorted:\n%s", s)
	}

	csv := tb.CSV()
	if !strings.HasPrefix(csv, "nodes,ours,naimi\n") {
		t.Fatalf("csv header:\n%s", csv)
	}
	if !strings.Contains(csv, "5,2.0000,\n") {
		t.Fatalf("csv body:\n%s", csv)
	}
}

func TestQuantiles(t *testing.T) {
	var l Latency
	if l.Quantile(0.99) != 0 {
		t.Fatal("empty quantile must be 0")
	}
	// 100 samples: 1ms … 100ms.
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	// The histogram is exponential, so quantiles are upper bucket edges:
	// P50 ≈ 50ms → edge 2^16 µs = 65.536ms; P99 ≈ 99ms → 2^17 µs.
	if q := l.Quantile(0.5); q < 50*time.Millisecond || q > 65536*time.Microsecond {
		t.Errorf("P50 = %v", q)
	}
	if q := l.Quantile(0.99); q < 99*time.Millisecond || q > 131072*time.Microsecond {
		t.Errorf("P99 = %v", q)
	}
	if q := l.Quantile(1.0); q < l.Quantile(0.5) {
		t.Errorf("P100 (%v) < P50 (%v)", q, l.Quantile(0.5))
	}
	// Out-of-range q clamps instead of misbehaving.
	if l.Quantile(-1) == 0 || l.Quantile(2) == 0 {
		t.Error("clamped quantiles must be nonzero with samples")
	}
}

func TestQuantileExtremes(t *testing.T) {
	var l Latency
	l.Observe(0)              // below the first bucket edge
	l.Observe(10 * time.Hour) // beyond the last bounded bucket
	if q := l.Quantile(0.01); q > time.Microsecond {
		t.Errorf("tiny sample quantile = %v", q)
	}
	if q := l.Quantile(1.0); q != 10*time.Hour {
		t.Errorf("huge sample quantile = %v, want Max", q)
	}
}
