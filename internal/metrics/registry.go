// Registry is the live-runtime counterpart of the plain accumulating
// collectors in this package: a goroutine-safe, atomic metric registry
// with Prometheus text exposition. The simulator and the live runtimes
// emit into the same metric families (the Metric* name constants below),
// so a simulated run and a production scrape are compared series by
// series with identical names and labels.
//
// Every handle type is nil-safe: methods on a nil *Counter or
// *Histogram (as returned by a nil *Registry) are no-ops that perform no
// allocation, so instrumented hot paths cost nothing when observability
// is disabled.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric family names, shared by the simulator and the live
// runtime so dashboards work unchanged against either.
const (
	// MetricMessagesTotal counts protocol messages sent, by kind
	// (Figure 7's series). Labels: kind.
	MetricMessagesTotal = "hierlock_messages_sent_total"
	// MetricRequestsTotal counts client lock requests issued (the
	// denominator of Figure 5's messages-per-request).
	MetricRequestsTotal = "hierlock_requests_total"
	// MetricSharedJoinsTotal counts acquisitions satisfied by joining an
	// existing local hold (zero protocol messages).
	MetricSharedJoinsTotal = "hierlock_shared_joins_total"

	// MetricTransportBytes counts transport payload bytes. Labels:
	// direction (sent|recv).
	MetricTransportBytes = "hierlock_transport_bytes_total"
	// MetricTransportFrames counts transport frames. Labels: direction.
	MetricTransportFrames = "hierlock_transport_frames_total"
	// MetricTransportQueueLen gauges per-peer outbound queue occupancy.
	// Labels: peer.
	MetricTransportQueueLen = "hierlock_transport_queue_len"
	// MetricTransportQueueHighWater gauges the worst per-peer outbound
	// queue occupancy observed. Labels: peer.
	MetricTransportQueueHighWater = "hierlock_transport_queue_high_water"
	// MetricTransportQueueFullDrops counts sends rejected at the queue
	// limit. Labels: peer.
	MetricTransportQueueFullDrops = "hierlock_transport_queue_full_drops_total"
	// MetricTransportInboxLen gauges the inbound mailbox occupancy.
	MetricTransportInboxLen = "hierlock_transport_inbox_len"
	// MetricTransportInboxHighWater gauges the worst inbound mailbox
	// occupancy observed.
	MetricTransportInboxHighWater = "hierlock_transport_inbox_high_water"
	// MetricTransportRedials counts reconnection attempts to peers.
	MetricTransportRedials = "hierlock_transport_redials_total"
	// MetricTransportRetransmits counts frames retransmitted after a
	// reconnect.
	MetricTransportRetransmits = "hierlock_transport_retransmits_total"
	// MetricTransportDupsSuppressed counts duplicate inbound frames
	// suppressed by the link sequence check.
	MetricTransportDupsSuppressed = "hierlock_transport_dups_suppressed_total"
	// MetricTransportPeerState gauges per-peer health (0 up, 1 degraded,
	// 2 down). Labels: peer.
	MetricTransportPeerState = "hierlock_transport_peer_state"

	// MetricAuditViolations counts protocol invariant violations flagged
	// by the online auditor (internal/audit). Labels: invariant. Any
	// nonzero sample is an alarm: either a protocol bug or a violated
	// transport assumption.
	MetricAuditViolations = "hierlock_audit_violations_total"
	// MetricAuditEntries counts trace entries the auditor consumed.
	MetricAuditEntries = "hierlock_audit_entries_total"
	// MetricJournalRecords counts write-ahead journal records appended.
	MetricJournalRecords = "hierlock_journal_records_total"
	// MetricJournalWALBytes gauges the bytes of the records in the WAL
	// since the last snapshot. That is not the file's length: the file is
	// zero-filled past its records. (The HELP string still says file
	// size.)
	MetricJournalWALBytes = "hierlock_journal_wal_bytes"
	// MetricJournalFsyncs counts journal WAL syncs: fdatasync calls where
	// the OS has fdatasync, fsync elsewhere.
	MetricJournalFsyncs = "hierlock_journal_fsyncs_total"
	// MetricJournalFsyncSeconds accumulates time spent in journal fsync.
	MetricJournalFsyncSeconds = "hierlock_journal_fsync_seconds_total"
	// MetricJournalSnapshots counts journal snapshot rotations.
	MetricJournalSnapshots = "hierlock_journal_snapshots_total"
	// MetricJournalFsyncLatency is the per-fsync latency histogram in
	// seconds. The seconds-total counter above only exposes the mean;
	// this histogram makes individual fsync stalls (a dying disk, a
	// saturated volume) visible.
	MetricJournalFsyncLatency = "hierlock_journal_fsync_latency_seconds"

	// MetricRecoveryRoundDuration is the start→Recovered duration
	// histogram of regeneration rounds run by this node, in seconds.
	MetricRecoveryRoundDuration = "hierlock_recovery_round_duration_seconds"
	// MetricRecoveryRegenerated counts locks reseeded into a recovered
	// epoch at this node (every Reseed applied, as regenerator or
	// survivor).
	MetricRecoveryRegenerated = "hierlock_recovery_regenerated_locks_total"
	// MetricRecoveryLostHolds counts holds demolished by recovery reseeds
	// (each surfaced to its client as ErrLockLost).
	MetricRecoveryLostHolds = "hierlock_recovery_lost_holds_total"

	// MetricMembershipSize gauges the member's current view of the
	// cluster size (configured nodes, itself included).
	MetricMembershipSize = "hierlock_membership_size"
	// MetricMembershipJoins counts peers this member admitted through the
	// JOIN handshake (first admission per peer; re-announcements are not
	// recounted).
	MetricMembershipJoins = "hierlock_membership_joins_total"
	// MetricMembershipLeaves counts graceful peer departures this member
	// processed (LEAVE hand-offs; crash recoveries are counted by the
	// recovery families instead).
	MetricMembershipLeaves = "hierlock_membership_leaves_total"
	// MetricMembershipHandoffLocks counts locks handed off by departing
	// peers (the token locks each LEAVE nominated for regeneration).
	MetricMembershipHandoffLocks = "hierlock_membership_handoff_locks_total"

	// MetricIncidents counts incidents written to disk (see
	// introspect.Recorder). Labels: reason
	// (audit_violation|recovery_round|lock_lost|stall|manual).
	MetricIncidents = "hierlock_incidents_total"

	// MetricOpLatency is the end-to-end client operation latency
	// histogram in seconds, keyed by operation and grant outcome — the
	// live per-operation SLO series, and the one latency sample of a
	// grant. Labels: op (lock|upgrade), outcome (local|remote|recovery|lost).
	MetricOpLatency = "hierlock_op_latency_seconds"
	// MetricQueueWait is the histogram of time a client request spends
	// queued for per-lock admission before it enters the protocol, in
	// seconds (the member serializes client operations per lock; this is
	// the local head-of-line wait, excluded from no series but visible on
	// its own here).
	MetricQueueWait = "hierlock_queue_wait_seconds"
	// MetricHealthState gauges the stall watchdog's verdict: 0 healthy,
	// 1 degraded, 2 stalled.
	MetricHealthState = "hierlock_health_state"
	// MetricHealthTransitions counts watchdog verdict transitions, by the
	// state entered. Labels: state (healthy|degraded|stalled).
	MetricHealthTransitions = "hierlock_health_transitions_total"

	// MetricStripeLocks gauges tracked-lock occupancy per shard stripe of
	// the member's lock table, exposing stripe contention hot spots.
	// Labels: stripe.
	MetricStripeLocks = "hierlock_stripe_locks"
	// MetricLamportClock gauges the member's Lamport clock. Its rate is
	// a contention proxy: the clock advances on every local protocol
	// step and witnesses every inbound message.
	MetricLamportClock = "hierlock_lamport_clock"

	// MetricTokenHops is the distribution of token transfers observed on
	// a lock while its grant was outstanding — the live equivalent of the
	// paper's per-request message-count curves (Figure 5): 0 hops is a
	// pure local grant, 1 a direct fetch, more a walk along the
	// probable-owner chain.
	MetricTokenHops = "hierlock_token_hops"

	// MetricFenceTokens counts fencing tokens issued by the member
	// (grants, upgrades and shared joins).
	MetricFenceTokens = "hierlock_fence_tokens_issued_total"

	// MetricSessionsOpen gauges named client sessions currently live on
	// this lockd (attached or awaiting re-adoption).
	MetricSessionsOpen = "hierlock_sessions_open"
	// MetricSessionsOpened counts named sessions created.
	MetricSessionsOpened = "hierlock_sessions_opened_total"
	// MetricSessionsAdopted counts reconnections that re-adopted a live
	// detached session.
	MetricSessionsAdopted = "hierlock_sessions_adopted_total"
	// MetricSessionsClosed counts sessions closed explicitly by clients.
	MetricSessionsClosed = "hierlock_sessions_closed_total"
	// MetricSessionsExpired counts sessions reaped by the lease sweeper
	// after their TTL elapsed without a renewal.
	MetricSessionsExpired = "hierlock_sessions_expired_total"
	// MetricSessionRenewals counts lease renewals (explicit SESSION RENEW
	// plus implicit activity-based touches).
	MetricSessionRenewals = "hierlock_session_renewals_total"
	// MetricSessionLocksReaped counts locks force-released because their
	// owning session's lease expired.
	MetricSessionLocksReaped = "hierlock_session_locks_reaped_total"

	// MetricAdmissionWaiting gauges the session tier's exclusive-mode
	// clients that wait for a lock and hold nothing yet: the population
	// the per-(resource, mode) waiter cap bounds.
	MetricAdmissionWaiting = "hierlock_admission_waiting"
	// MetricAdmissionEnqueued counts exclusive-mode client acquisitions
	// admitted under the waiter cap.
	MetricAdmissionEnqueued = "hierlock_admission_enqueued_total"
	// MetricAdmissionHandoffs named a counter of grants passed from one
	// local client to the next without a release. No code registers it.
	//
	// Deprecated: every release goes through the engine; removed when the
	// benchmark harness stops reading it.
	MetricAdmissionHandoffs = "hierlock_admission_handoffs_total"
	// MetricAdmissionLeaderAcquires counts member-level exclusive-mode
	// acquisitions made for the session tier's clients.
	MetricAdmissionLeaderAcquires = "hierlock_admission_leader_acquires_total"
	// MetricAdmissionBusy counts requests rejected with ERR busy because
	// their (resource, mode) already had the configured cap of waiters.
	MetricAdmissionBusy = "hierlock_admission_busy_rejections_total"
)

// Label values of MetricOpLatency's op and outcome dimensions, indexable
// by the Op*/Outcome* constants below so hot paths address a cached
// handle array instead of formatting labels.
var (
	OpKinds  = []string{"lock", "upgrade"}
	Outcomes = []string{"local", "remote", "recovery", "lost"}
)

// Indexes into OpKinds.
const (
	OpLock    = 0
	OpUpgrade = 1
)

// Indexes into Outcomes: a grant served from local state (shared join or
// an immediate token-in-hand grant), a grant that needed remote token
// traffic, a grant delayed through a crash-recovery reseed, and an
// operation that never completed (RecoveryTimeout expiry).
const (
	OutcomeLocal    = 0
	OutcomeRemote   = 1
	OutcomeRecovery = 2
	OutcomeLost     = 3
)

// TokenHopBuckets are the MetricTokenHops histogram bounds: hop counts
// are small integers, so the buckets enumerate them up to a tail.
var TokenHopBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// DefLatencyBuckets are the default request-latency histogram bounds in
// seconds, spanning local grants (sub-millisecond) to multi-second waits
// behind contended tokens.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Labels is a metric's label set. Keys and values are emitted sorted by
// key, so any map order yields the same series identity.
type Labels map[string]string

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	n atomic.Uint64
	// reg is the registry that minted the handle (nil for a standalone
	// counter): a read pulls in what the registry's producers have staged.
	reg *Registry
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current count (0 for nil), after the registry's
// staging producers have folded in their share (see Registry.OnRead):
// the caller must hold nothing a fold hook takes.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	c.reg.Pull()
	return c.n.Load()
}

// Histogram is a fixed-bucket atomic histogram (Prometheus semantics:
// cumulative buckets on exposition, each bound is an inclusive upper
// edge, plus an implicit +Inf bucket). The sample count is not stored:
// it is the sum of the buckets, so an observation writes one bucket and
// the sum.
type Histogram struct {
	upper []float64
	// cell holds len(upper)+1 bucket counts (the last is the +Inf
	// overflow) followed by the sample sum as float64 bits.
	cell []atomic.Uint64
	// reg is the minting registry (nil for a standalone histogram); see
	// Counter.reg.
	reg *Registry
}

// NewHistogram creates a standalone histogram with the given inclusive
// upper bounds (must be sorted ascending; nil means DefLatencyBuckets).
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	return &Histogram{
		upper: append([]float64(nil), buckets...),
		cell:  make([]atomic.Uint64, len(buckets)+2),
	}
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.cell[Bucket(h.upper, v)].Add(1)
	if v == 0 {
		return // a zero sample (a free admission slot, no token hops) adds nothing to the sum
	}
	addFloat(&h.cell[len(h.upper)+1], v)
}

// Bucket returns the bucket a sample v lands in under the inclusive upper
// bounds upper: the index of the first bound >= v, or len(upper) (+Inf).
func Bucket(upper []float64, v float64) int {
	lo, hi := 0, len(upper)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if upper[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// addFloat adds v to the float64 whose bits w holds.
func addFloat(w *atomic.Uint64, v float64) {
	for {
		old := w.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if w.CompareAndSwap(old, next) {
			return
		}
	}
}

// Add records samples counted elsewhere: counts[i] more in bucket i (see
// Bucket; len(counts) is at most the bucket count, +Inf included), adding
// up to sum — how a producer that counted samples in words of its own
// folds them in. No-op on a nil histogram.
func (h *Histogram) Add(counts []uint64, sum float64) {
	if h == nil {
		return
	}
	for i, n := range counts {
		if n != 0 {
			h.cell[i].Add(n)
		}
	}
	if sum != 0 {
		addFloat(&h.cell[len(h.upper)+1], sum)
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot reads the per-bucket counts (len(upper)+1) and the sample sum.
func (h *Histogram) snapshot() ([]uint64, float64) {
	nb := len(h.upper) + 1
	counts := make([]uint64, nb)
	for i := range counts {
		counts[i] = h.cell[i].Load()
	}
	return counts, math.Float64frombits(h.cell[nb].Load())
}

// Count returns the number of samples (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.reg.Pull()
	counts, _ := h.snapshot()
	var total uint64
	for _, n := range counts {
		total += n
	}
	return total
}

// Sum returns the sum of samples (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.reg.Pull()
	_, sum := h.snapshot()
	return sum
}

// Quantile returns an upper bound for the q-quantile from the bucket
// counts: the upper edge of the bucket containing it (+Inf collapses to
// the largest finite bound). Zero with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.reg.Pull()
	counts, _ := h.snapshot()
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if cum >= rank && i < len(h.upper) {
			return h.upper[i]
		}
	}
	return h.upper[len(h.upper)-1]
}

// Collector is a scrape-time sample source for one metric family: it is
// invoked during WritePrometheus and emits (labels, value) samples
// reflecting current state (queue depths, engine gauges, ...).
type Collector func(emit func(labels Labels, value float64))

// Registry is a set of named metric families. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid
// "disabled" registry: every lookup returns a nil handle whose methods
// are no-ops.
//
// A producer on a hot path may count in words of its own and fold them
// into its handles only when somebody looks: it registers the fold with
// OnRead, and every read — WritePrometheus, and Value, Count, Sum and
// Quantile on a handle the registry minted — runs it first, so a reader
// never sees a handle behind the operations that finished before the
// read began.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// read is held by a reader while the fold hooks run and, in
	// WritePrometheus, until the last family is rendered: one exposition
	// never shows half of a fold. Only readers take it. Lock order: read
	// before anything a hook takes.
	read   sync.Mutex
	onRead atomic.Pointer[[]func()]
}

type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	buckets []float64
	series  map[string]*series // by rendered label string
	collect []Collector
}

type series struct {
	labels string // rendered `k="v",...` (no braces), "" for none
	ctr    *Counter
	hist   *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnRead registers a staging producer's fold hook: fn adds to the
// registry's handles (Counter.Add, Histogram.Add) whatever the producer
// has counted and not yet folded. It runs at the start of every read, one
// reader at a time. No-op on a nil registry or nil fn.
func (r *Registry) OnRead(fn func()) {
	if r == nil || fn == nil {
		return
	}
	for {
		old := r.onRead.Load()
		var hooks []func()
		if old != nil {
			hooks = append(hooks, *old...)
		}
		hooks = append(hooks, fn)
		if r.onRead.CompareAndSwap(old, &hooks) {
			return
		}
	}
}

// Pull runs the fold hooks as a read would, for a reader of what they
// fold that is not an exposition: a handle's Value, Count, Sum and
// Quantile, the auditor's report. A registry nobody stages into pays one
// atomic load. Nil-safe.
func (r *Registry) Pull() {
	if r == nil || r.onRead.Load() == nil {
		return
	}
	r.read.Lock()
	r.fold()
	r.read.Unlock()
}

// fold runs the hooks. Callers hold r.read.
func (r *Registry) fold() {
	if hooks := r.onRead.Load(); hooks != nil {
		for _, fn := range *hooks {
			fn()
		}
	}
}

func (r *Registry) family(name, help, typ string, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets,
			series: make(map[string]*series)}
		r.families[name] = f
	}
	return f
}

// Counter returns (creating if needed) the counter series for name with
// the given labels. Nil-safe: a nil registry returns a nil counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter", nil)
	s := f.seriesFor(labels)
	if s.ctr == nil {
		s.ctr = &Counter{reg: r}
	}
	return s.ctr
}

// Histogram returns (creating if needed) the histogram series for name
// with the given labels and bucket bounds (nil = DefLatencyBuckets; the
// family's first registration wins). Nil-safe.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	f := r.family(name, help, "histogram", buckets)
	s := f.seriesFor(labels)
	if s.hist == nil {
		s.hist = NewHistogram(f.buckets)
		s.hist.reg = r
	}
	return s.hist
}

// Collect registers a scrape-time collector for a counter or gauge
// family (typ "counter" or "gauge"). Collector samples whose series
// collide with a statically registered series are dropped, so the
// exposition never contains duplicates. Nil-safe.
func (r *Registry) Collect(name, help, typ string, fn Collector) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ, nil)
	f.collect = append(f.collect, fn)
}

func (f *family) seriesFor(labels Labels) *series {
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// renderLabels renders a label set in canonical (sorted, escaped) form
// without surrounding braces.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with one HELP
// and one TYPE line followed by its series sorted by label string, with
// histogram buckets exposed cumulatively. The staging producers fold
// first and collectors run at call time, all of it as one read (see
// Registry.read). Nil-safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.read.Lock()
	r.fold()
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot family pointers; series maps are only appended to, and
	// value reads are atomic, so rendering outside r.mu is safe except
	// for concurrent series insertion — guard by re-locking per family.
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		static := make([]*series, len(keys))
		for i, k := range keys {
			static[i] = f.series[k]
		}
		collectors := append([]Collector(nil), f.collect...)
		r.mu.Unlock()

		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		seen := make(map[string]bool, len(static))
		for _, s := range static {
			seen[s.labels] = true
			switch {
			case s.ctr != nil:
				writeSample(&b, f.name, s.labels, "", float64(s.ctr.n.Load()))
			case s.hist != nil:
				writeHistogram(&b, f.name, s.labels, s.hist)
			}
		}
		if len(collectors) > 0 {
			collected := make(map[string]float64)
			order := make([]string, 0, 8)
			emit := func(labels Labels, v float64) {
				key := renderLabels(labels)
				if seen[key] {
					return // never duplicate a static series
				}
				if _, dup := collected[key]; !dup {
					order = append(order, key)
				}
				collected[key] = v
			}
			for _, fn := range collectors {
				fn(emit)
			}
			sort.Strings(order)
			for _, key := range order {
				writeSample(&b, f.name, key, "", collected[key])
			}
		}
	}
	r.read.Unlock() // before the write: w may be a slow client
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one exposition line. extra is an extra pre-rendered
// label (histogram "le") appended after the series labels.
func writeSample(b *strings.Builder, name, labels, extra string, v float64) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	counts, sum := h.snapshot()
	var cum uint64
	for i, bound := range h.upper {
		cum += counts[i]
		writeSample(b, name+"_bucket", labels,
			`le="`+formatValue(bound)+`"`, float64(cum))
	}
	cum += counts[len(h.upper)]
	writeSample(b, name+"_bucket", labels, `le="+Inf"`, float64(cum))
	writeSample(b, name+"_sum", labels, "", sum)
	writeSample(b, name+"_count", labels, "", float64(cum))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
