// Package metrics collects the quantities the paper's evaluation reports:
// per-kind message counts (Figure 7), messages per lock request (Figure 5)
// and request latency as a multiple of the mean point-to-point network
// latency (Figure 6).
//
// Collectors are plain value-accumulating structs with no locking; in the
// discrete-event simulator everything runs on one goroutine.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"hierlock/internal/proto"
)

// Messages counts protocol messages by kind.
type Messages struct {
	ByKind [14]uint64 // indexed by proto.Kind (through KindLeaveAck)
	// Unknown counts messages whose kind is outside the known range —
	// a decoding bug or a newer peer's message type. Keeping them in a
	// dedicated overflow bucket guarantees Total never under-reports.
	Unknown uint64
}

// Count records one message. Out-of-range kinds land in the Unknown
// bucket rather than being silently discarded.
func (m *Messages) Count(k proto.Kind) {
	if int(k) < len(m.ByKind) {
		m.ByKind[k]++
		return
	}
	m.Unknown++
}

// Total returns the total number of messages of every kind, including
// unknown ones.
func (m *Messages) Total() uint64 {
	t := m.Unknown
	for _, n := range m.ByKind {
		t += n
	}
	return t
}

// Kinds lists the message kinds in the order Figure 7 plots them.
var Kinds = []proto.Kind{
	proto.KindRequest, proto.KindGrant, proto.KindToken,
	proto.KindRelease, proto.KindFreeze,
}

// Queue is a snapshot of one bounded queue's occupancy (a transport
// mailbox or per-peer outbound buffer).
type Queue struct {
	// Len is the current queue length.
	Len uint64
	// HighWater is the maximum length ever observed.
	HighWater uint64
	// Limit is the configured bound (0 = unbounded).
	Limit uint64
	// FullDrops counts enqueue attempts rejected because the queue was at
	// its limit.
	FullDrops uint64
}

// Link counts link-layer resilience events of a live transport endpoint.
type Link struct {
	// Redials counts reconnection attempts to peers.
	Redials uint64
	// Retransmits counts frames re-sent from the unacked buffer after a
	// connection was re-established.
	Retransmits uint64
	// DupsSuppressed counts inbound frames discarded by the per-link
	// sequence check.
	DupsSuppressed uint64
}

// Latency accumulates durations and derives summary statistics,
// including approximate percentiles from a fixed exponential histogram
// (buckets double from 1 µs up to ~1.2 h, ≤ one-bucket relative error).
type Latency struct {
	Count uint64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
	// buckets[i] counts samples in (2^(i-1)µs, 2^i µs]; buckets[0] counts
	// ≤ 1µs, the last bucket is unbounded.
	buckets [33]uint64
}

// Observe records one sample.
func (l *Latency) Observe(d time.Duration) {
	if l.Count == 0 || d < l.Min {
		l.Min = d
	}
	if d > l.Max {
		l.Max = d
	}
	l.Count++
	l.Sum += d
	l.buckets[bucketOf(d)]++
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	for i := 0; i < len((&Latency{}).buckets)-1; i++ {
		if us <= 1<<i {
			return i
		}
	}
	return len((&Latency{}).buckets) - 1
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) from the
// histogram: the upper edge of the bucket containing it (Max for the
// unbounded bucket). Zero with no samples.
func (l *Latency) Quantile(q float64) time.Duration {
	if l.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(l.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range l.buckets {
		cum += n
		if cum >= rank {
			if i == len(l.buckets)-1 {
				return l.Max
			}
			return time.Duration(1<<i) * time.Microsecond
		}
	}
	return l.Max
}

// Mean returns the average sample, or 0 with no samples.
func (l *Latency) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Sum / time.Duration(l.Count)
}

// Factor expresses the mean latency as a multiple of base (the paper's
// latency-factor metric, base = mean point-to-point latency).
func (l *Latency) Factor(base time.Duration) float64 {
	if base == 0 || l.Count == 0 {
		return 0
	}
	return l.Mean().Seconds() / base.Seconds()
}

// Table renders aligned numeric series, in the spirit of the paper's
// figures rendered as text. Columns are ordered by insertion.
type Table struct {
	Title   string
	XLabel  string
	columns []string
	rows    []row
}

type row struct {
	x     float64
	cells map[string]float64
}

// NewTable creates a table with the given title and x-axis label.
func NewTable(title, xlabel string) *Table {
	return &Table{Title: title, XLabel: xlabel}
}

// Add records value for series name at x-coordinate x.
func (t *Table) Add(x float64, name string, value float64) {
	found := false
	for _, c := range t.columns {
		if c == name {
			found = true
			break
		}
	}
	if !found {
		t.columns = append(t.columns, name)
	}
	for i := range t.rows {
		if t.rows[i].x == x {
			t.rows[i].cells[name] = value
			return
		}
	}
	t.rows = append(t.rows, row{x: x, cells: map[string]float64{name: value}})
}

// Columns returns the series names in insertion order.
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// Value returns the cell for (x, name) and whether it exists.
func (t *Table) Value(x float64, name string) (float64, bool) {
	for _, r := range t.rows {
		if r.x == x {
			v, ok := r.cells[name]
			return v, ok
		}
	}
	return 0, false
}

// Xs returns the sorted x-coordinates.
func (t *Table) Xs() []float64 {
	xs := make([]float64, 0, len(t.rows))
	for _, r := range t.rows {
		xs = append(xs, r.x)
	}
	sort.Float64s(xs)
	return xs
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	width := len(t.XLabel)
	for _, c := range t.columns {
		if len(c) > width {
			width = len(c)
		}
	}
	if width < 10 {
		width = 10
	}
	fmt.Fprintf(&b, "%-*s", width+2, t.XLabel)
	for _, c := range t.columns {
		fmt.Fprintf(&b, "%*s", width+2, c)
	}
	b.WriteByte('\n')

	sorted := append([]row(nil), t.rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].x < sorted[j].x })
	for _, r := range sorted {
		fmt.Fprintf(&b, "%-*.6g", width+2, r.x)
		for _, c := range t.columns {
			if v, ok := r.cells[c]; ok {
				fmt.Fprintf(&b, "%*.3f", width+2, v)
			} else {
				fmt.Fprintf(&b, "%*s", width+2, "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(t.XLabel)
	for _, c := range t.columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	sorted := append([]row(nil), t.rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].x < sorted[j].x })
	for _, r := range sorted {
		fmt.Fprintf(&b, "%g", r.x)
		for _, c := range t.columns {
			if v, ok := r.cells[c]; ok {
				fmt.Fprintf(&b, ",%.4f", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
