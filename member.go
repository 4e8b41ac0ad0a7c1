package hierlock

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hierlock/internal/hlock"
	"hierlock/internal/introspect"
	"hierlock/internal/journal"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/recovery"
	"hierlock/internal/trace"
	"hierlock/internal/transport"
	"hierlock/internal/watchdog"
)

// Public errors.
var (
	// ErrClosed is returned by operations on a closed member or cluster.
	ErrClosed = errors.New("hierlock: member closed")
	// ErrReleased is returned by operations on an already-released lock.
	ErrReleased = errors.New("hierlock: lock already released")
	// ErrNotUpgradable is returned by Upgrade on a lock not held in U.
	ErrNotUpgradable = errors.New("hierlock: upgrade requires mode U")
	// ErrLeaving is returned by Lock and Upgrade on a member that has
	// started a graceful Leave: a departing member takes no new work.
	ErrLeaving = errors.New("hierlock: member is leaving the cluster")
	// ErrLockLost is returned when crash recovery determined a hold or a
	// pending request did not survive a token regeneration round: Unlock
	// returns it for a hold whose accounting was lost (the surviving
	// members fenced this node out while it was partitioned or paused),
	// and Lock/Upgrade return it when RecoveryTimeout expires with no
	// grant. The client must assume it no longer holds the resource.
	ErrLockLost = errors.New("hierlock: lock lost in crash recovery")
)

// Lock order. The member has two mutexes, its control plane's and its data
// plane's; a goroutine holding the first may take the second, never the
// reverse:
//
//	Member.mgrMu   the control plane: every recovery.Manager entry point
//	               and its callbacks (the Recovered journal record among
//	               them), the membership handshake and the tracked timers
//	lockShard.mu   the data plane: one stripe at a time, never two
//
// The member-wide counters are atomics and have no place in this order.
// Under a stripe's mutex the member calls out to the trace ring and its
// taps (the auditor), the incident recorder, the journal (Append) and the
// transport (Send); each has mutexes of its own and none calls back —
// which is why a tap, and whatever it calls (the auditor's OnViolation, an
// incident's trigger), may read nothing that pulls from the stripes. The
// other direction goes through the OnRead hooks: a reader of the registry
// or of the ring runs them — they take each stripe's mutex in turn —
// before it takes the mutex of what it reads and, for the registry, while
// it holds the registry's read mutex, which only readers take. A Lock/Unlock pair on a resident token takes its lock's
// stripe mutex twice and no other mutex at all, save once in stageEntries
// pairs.

// lockShardCount is the number of stripes the member's per-lock state is
// spread over. Lock IDs are hashes of resource names, so a simple modulo
// distributes them evenly; 64 stripes keeps the probability of two hot
// locks sharing a mutex low without bloating the member.
const lockShardCount = 64

// lockShard is one stripe of the member's per-lock table. Each lock's
// engine, waiter, hold and admission slot live together under the
// stripe's mutex, and so do the stripe's share of what a client
// operation accounts: the acquire-latency summary, the shared-join
// count, the metric samples waiting for the registry and the trace
// entries waiting for the ring. A client operation therefore writes no
// metric or trace word another stripe writes, with or without telemetry
// attached, whether it waited, travelled or was granted at once; what it
// shares is the Lamport clock and, per message it sends, the member's
// message count (both atomic).
type lockShard struct {
	mu    sync.Mutex
	m     *Member // a Lock handle reaches its member through its stripe
	locks map[proto.LockID]*lockState

	// grants counts this stripe's granted acquisitions and upgrades, and
	// sharedJoins its joins of an existing hold; Stats and HealthSample sum
	// the stripes (these are the stripe's own words, so those two readers
	// have nothing to fold).
	grants      uint64
	sharedJoins uint64

	// staged holds client-operation trace entries (acquire, granted,
	// release) no consumer has seen yet, neither the taps nor the ring: see
	// note. It is the one staging layer between a client operation and all
	// of them.
	staged []trace.Entry

	// cnt is what the stripe has counted for the registry and not yet
	// folded into its handles: see staged.
	cnt staged

	// The next stripe's mutex must not share a cache line with the words
	// every operation on this one writes.
	_ [64]byte
}

// Series a stripe stages, the columns of staged.n: the admission wait,
// the token hops, then hierlock_op_latency_seconds by (op, outcome) (see
// latency).
const (
	seriesWait = iota // hierlock_queue_wait_seconds
	seriesHops        // hierlock_token_hops
	seriesLat
	nSeries = seriesLat + 2*4
)

// latency returns the series of op_latency{op, outcome}.
func latency(op, outcome int) int { return seriesLat + op*len(metrics.Outcomes) + outcome }

// bounds returns the bucket bounds series s is counted over.
func bounds(s int) []float64 {
	if s == seriesHops {
		return metrics.TokenHopBuckets
	}
	return metrics.DefLatencyBuckets
}

// staged is a stripe's share of the member's client-operation metrics in
// plain words under the stripe's mutex: the counters, and per series (see
// seriesWait) a count per bucket of the histogram it feeds and the sum.
// The registry's readers fold the words into the handles (pull), which
// nothing else writes, so an exposition shows what it showed when each
// sample wrote the handles itself. The buckets are bucket-major: the
// lowest bucket of every series, all a resident Lock/Unlock pair writes
// besides the counters, sits within 104 bytes of requests.
type staged struct {
	requests uint64 // hierlock_requests_total
	fences   uint64 // hierlock_fence_tokens_issued_total
	joins    uint64 // hierlock_shared_joins_total
	// n[b][s] counts series s's samples in bucket b (+Inf last; 15 is
	// len(metrics.DefLatencyBuckets)+1, the most any series has), and
	// sum[s] is their sum: nanoseconds, or hops.
	n   [15][nSeries]uint64
	sum [nSeries]uint64
}

// stage counts one sample of series s, of value v (nanoseconds; hops for
// seriesHops), in the bucket Histogram.Observe puts it in. Callers hold
// the stripe's mutex.
func (c *staged) stage(s int, v int64) {
	if v != 0 {
		c.add(s, v)
		return
	}
	c.n[0][s]++ // a 0, all a resident pair stages: no bound is negative
}

// add is stage for a sample other than 0.
func (c *staged) add(s int, v int64) {
	x := float64(v)
	if s != seriesHops {
		x = time.Duration(v).Seconds()
	}
	c.n[metrics.Bucket(bounds(s), x)][s]++
	c.sum[s] += uint64(v)
}

// stageGrant counts a granted operation: its latency d by op and outcome
// (metrics.Op*, Outcome*) and its hops, in one hold of the stripe's mutex,
// so an exposition shows it in both families or in neither.
func (c *staged) stageGrant(op, outcome int, d time.Duration, hops int) {
	c.stage(latency(op, outcome), int64(d))
	c.stage(seriesHops, int64(hops))
}

// fold adds the stripe's staged words to tel's handles and clears them.
// Callers hold sh.mu and are the registry's reader (its OnRead hook), so
// no exposition shows half of it.
func (sh *lockShard) fold(tel *telemetry) {
	c := &sh.cnt
	tel.requests.Add(c.requests)
	tel.fences.Add(c.fences)
	tel.sharedJoins.Add(c.joins)
	for s, h := range tel.series {
		var counts [len(staged{}.n)]uint64
		for b := range counts {
			counts[b] = c.n[b][s]
		}
		sum := time.Duration(c.sum[s]).Seconds()
		if s == seriesHops {
			sum = float64(c.sum[s])
		}
		h.Add(counts[:len(bounds(s))+1], sum)
	}
	*c = staged{}
}

// pull is the member's hook on reads of its registry: every stripe's
// staged words go to the handles and its staged trace entries to the ring
// and its taps (the auditor counts into the registry too).
func (m *Member) pull() {
	tel := m.tel.Load()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.fold(tel)
		sh.admit()
		sh.mu.Unlock()
	}
}

// flush hands every stripe's staged trace entries to the ring and its
// taps: the member's hook on reads of the ring, and part of Close.
func (m *Member) flush() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.admit()
		sh.mu.Unlock()
	}
}

// stageEntries is how many trace entries a stripe holds back before it
// admits them in one round of the ring's mutex and one call of each tap.
// A Lock/Unlock pair on a resident token is one entry.
const stageEntries = 16

// note stages a trace entry. The ring and its taps (the auditor) get it
// with the stripe's next batch: when the buffer is full, with the next
// message event on this stripe, which goes in last (record) — so whatever
// lets another node act on a lock finds what this one did with it already
// handed in — on Close, and whenever the ring (an incident copies it) or
// the registry is read (flush, pull). Callers hold sh.mu and have checked
// that the member has a recorder.
func (sh *lockShard) note(e *trace.Entry) {
	if sh.staged == nil {
		sh.staged = make([]trace.Entry, 0, stageEntries)
	} else if len(sh.staged) == cap(sh.staged) {
		sh.admit() // not until the next entry: a grant staged last can still take its release
	}
	sh.staged = append(sh.staged, *e)
}

// noteRelease records the release, at stamp at and under trace tr, of this
// member's hold on lock: in the hold's OpGranted entry
// (trace.Entry.Released), which then stands for the whole operation, when
// that is the last thing the stripe staged; as an OpRelease entry when
// anything was staged or admitted in between. Callers hold sh.mu and have
// checked that the member has a recorder.
func (sh *lockShard) noteRelease(at time.Duration, lock proto.LockID, tr proto.TraceID) {
	if n := len(sh.staged); n > 0 {
		if g := &sh.staged[n-1]; g.Op == trace.OpGranted && g.Lock == lock && g.Released == 0 {
			g.Released, g.ReleaseSeq = at, tr.Seq
			return
		}
	}
	sh.note(&trace.Entry{At: at, Op: trace.OpRelease, Node: tr.Node, Lock: lock, Trace: tr})
}

// record hands a message event or a node event to the ring and its taps
// at once, as the last entry of the stripe's batch: what a node did with
// a lock before it sent the token precedes the send, and so the peer's
// delivery and whatever the peer does next, in a ring or an auditor
// several members share. Callers hold sh.mu and have checked that the
// member has a recorder.
func (sh *lockShard) record(e trace.Entry) {
	sh.note(&e)
	sh.admit()
}

// admit hands the staged entries to the member's recorder, the one they
// were staged for: telemetry attaches once. Callers hold sh.mu.
func (sh *lockShard) admit() {
	if len(sh.staged) > 0 {
		sh.m.tel.Load().rec.Admit(sh.staged)
		sh.staged = sh.staged[:0]
	}
}

// lockState is everything the member tracks for one lock, all of it
// guarded by the owning shard's mutex.
type lockState struct {
	id proto.LockID
	// sh is the stripe that owns the entry, set at creation.
	sh *lockShard
	// res is the resource name clients used for this lock: every handle's
	// Resource, and the name in the inventory ("" when only remote
	// messages have touched the lock so far).
	res    string
	engine *hlock.Engine
	// waiter is the outstanding client request, if any: nil or &w. The
	// admission slot admits one client operation per lock, so the waiter
	// and its one-slot channel are the entry's own storage, re-armed per
	// request instead of allocated per call.
	waiter *waiter
	w      waiter
	// hold reference-counts the member's current hold so several local
	// clients can share a self-compatible mode (IR, R, IW) without extra
	// protocol traffic: the member holds the mode once; the last sharer
	// releases it. Like the waiter, nil or the entry's own storage (&h):
	// the admission slot is held from grant to last release.
	hold *hold
	h    hold
	// admitted is the per-lock client-admission slot (one client operation
	// per lock per member at a time): set while an operation or the hold it
	// was granted owns the slot. Only an arrival that finds it set queues, on
	// a one-slot channel of its own in admitQ, and waits outside the mutex;
	// freeSlot passes the slot to the head of the queue in arrival order.
	// The word stays set for as long as anyone is queued, so an entry with a
	// client waiting is never evicted.
	admitted bool
	admitQ   []chan struct{}
	// logged is the last engine state appended to the journal for this
	// lock (diffed on every dispatch; meaningless when the member has no
	// journal). recorded is set once the journal holds any record for the
	// lock, replayed or appended through this entry.
	logged   journaled
	recorded bool
	// reseeded flags the next journal record as a recovery reseed.
	reseeded bool
	// seedRoot is the lock's last authoritative root (initial topology,
	// journal replay, or the most recent recovery round), recorded in
	// journal records so a restarted member knows where to re-home.
	seedRoot proto.NodeID
}

// journaled is the durable-state fingerprint of one lock's engine: the
// fields replay restores, whose change warrants a journal record.
// Probable-owner parent churn is excluded — it changes on nearly every
// message and is reconstructible from the recovery protocol — and so is
// the held mode: client holds die with the process.
type journaled struct {
	epoch uint32
	token bool
}

// Member is one participant of a locking cluster: it hosts the protocol
// engines for every lock the node touches and provides blocking client
// operations. Methods are safe for concurrent use; operations on the
// same resource from one member are serialized (a member holds at most
// one mode per lock, as in the paper's model), while operations on
// distinct resources run concurrently on separate shard stripes.
type Member struct {
	id   proto.NodeID
	root proto.NodeID
	tr   transport.Transport

	// clock is the member-wide Lamport clock, shared by all engines.
	// proto.Clock is internally atomic, so engines in different shards
	// advance it without a common mutex. It is the one word every client
	// operation on every core writes (three ticks per resident
	// Lock/Unlock), so it gets a cache line to itself: the identity fields
	// above and the first shard's mutex below are read or written by the
	// same operations and must not miss each time it ticks.
	_      [64]byte
	clock  proto.Clock
	_      [64]byte
	shards [lockShardCount]lockShard

	closed atomic.Bool
	// done is closed by Close; blocked clients select on it so Close
	// fails every outstanding waiter with ErrClosed.
	done chan struct{}
	// leaving marks a graceful Leave in progress: new client operations
	// fail with ErrLeaving so the hand-off broadcast sees a stable set of
	// held tokens.
	leaving atomic.Bool

	// advertise is the address peers should dial to reach this member
	// (carried in JOIN announcements; empty for in-process members, which
	// have no runtime membership).
	advertise string

	// mgr runs the crash-recovery protocol when the member was created
	// with a failure detector (nil otherwise). mgrMu serializes every
	// Manager entry point except the seed-table reads SeedFor and Table,
	// which take no member mutex; the lock order is always mgrMu before a
	// shard mutex, never the reverse. roundStart, recEpochs, joinC/leaveC
	// and the timers below are the rest of the control plane, guarded by
	// mgrMu too.
	mgr   *recovery.Manager
	mgrMu sync.Mutex
	// roundStart stamps each in-flight regeneration round this node runs
	// as regenerator (per lock), for the round-duration histogram.
	roundStart map[proto.LockID]time.Time
	// recEpochs dedups the append-before-broadcast journal record for
	// Recovered fan-outs (one durable record per lock per epoch, not one
	// per receiver or hint).
	recEpochs map[proto.LockID]uint32
	// joinC/leaveC are the membership handshake channels: non-nil only
	// while a Join/Leave call is collecting acknowledgments.
	joinC  chan proto.NodeID
	leaveC chan proto.NodeID
	// timers are the member's tracked time.AfterFunc timers (recovery
	// retries, deferred peer retirements). Close stops every tracked timer
	// and waits for in-flight callbacks (timerWG), so none can fire into a
	// torn-down member.
	timers        map[*trackedTimer]struct{}
	timersStopped bool
	timerWG       sync.WaitGroup

	// recoveryTimeout, when non-zero, bounds each blocking client
	// operation (see TCPMemberConfig.RecoveryTimeout).
	recoveryTimeout time.Duration

	// jn is the member's durable write-ahead journal (nil when the
	// member runs without a data directory). replayed is the journal's
	// fold at startup, consulted when lazily creating engines so a
	// restarted member resumes at its journaled epochs instead of 0; it
	// is immutable after construction.
	jn       *journal.Journal
	replayed map[proto.LockID]journal.Record

	// sent counts the protocol messages the member sent, indexed as
	// metrics.Messages.ByKind with one more word for out-of-range kinds
	// (its Unknown); lostHolds counts holds demolished by recovery
	// reseeds; firstErr is the first internal error (first one wins).
	// Atomics: a message is counted wherever it is sent, under a stripe's
	// mutex, mgrMu or neither.
	sent      [len(metrics.Messages{}.ByKind) + 1]atomic.Uint64
	lostHolds atomic.Uint64
	firstErr  atomic.Pointer[error]

	// fsyncStalls counts journal fsyncs over the stall threshold (fed by
	// the fsync observer), one of the stall watchdog's inputs.
	fsyncStalls atomic.Uint64

	// tel is the wired instrumentation bundle: &detached until
	// SetTelemetry publishes the one bundle, atomically because the
	// transport — and a journal-restored member's cold-start traffic — is
	// already delivering by the time a host can call SetTelemetry.
	tel atomic.Pointer[telemetry]
}

// Telemetry bundles the optional live observability sinks of a member.
// Attach with TCPMemberConfig.Telemetry to observe a member from its
// first frame, or with SetTelemetry before client operations; with no
// telemetry attached the instrumented paths cost nothing (nil-handle
// no-ops).
type Telemetry struct {
	// Registry receives Prometheus-style metrics (message counters,
	// latency histograms, per-lock and transport gauges). See
	// internal/metrics for the metric catalog.
	Registry *metrics.Registry
	// Trace receives per-event protocol trace entries, from which each
	// operation's causal path is reconstructed (see internal/trace).
	Trace *trace.Recorder
	// NetLatencyBase is accepted and ignored.
	//
	// Deprecated: latency is exported in seconds only
	// (hierlock_op_latency_seconds); removed when the benchmark harness
	// stops setting it.
	NetLatencyBase time.Duration
	// Logger receives structured protocol logs: peer state, recovery and
	// membership at Info and Warn, internal protocol errors at Error, the
	// latter correlated by trace ID. Grants are not logged: each is an
	// OpGranted entry in Trace. Nil disables logging.
	Logger *slog.Logger
	// Blackbox attaches the incident recorder: the member points it at
	// Trace, its lock inventory and its health sample, and triggers an
	// incident on every recovery round and ErrLockLost; Close waits for
	// the incidents in flight. Round transitions, fsync stalls, eviction
	// sweeps and lost holds are recorded in Trace whether or not it is
	// set. Nil disables it at the cost of one nil check per exceptional
	// event.
	Blackbox *introspect.Recorder
}

// telemetry is the member's wired instrumentation state: cached series
// handles so hot paths never do registry lookups.
type telemetry struct {
	reg *metrics.Registry
	rec *trace.Recorder
	log *slog.Logger

	requests    *metrics.Counter
	sharedJoins *metrics.Counter

	// series are the histograms the stripes stage for (see seriesWait):
	// admission wait, token hops per grant, and the per-operation SLO
	// latency by (op, outcome). Only fold writes them.
	series [nSeries]*metrics.Histogram

	// fences counts fencing tokens minted (grants, upgrades and shared
	// joins).
	fences *metrics.Counter

	// Recovery-phase instrumentation (all nil-safe no-ops without a
	// registry; recovery itself may also be disabled, leaving them at
	// their pre-registered zeros).
	recRoundDur *metrics.Histogram
	regenerated *metrics.Counter
	recLost     *metrics.Counter

	// Runtime-membership instrumentation (cluster size is a scrape-time
	// collector; these count the handshake events themselves).
	mJoins   *metrics.Counter
	mLeaves  *metrics.Counter
	mHandoff *metrics.Counter

	// bb is the attached incident recorder (nil-safe).
	bb *introspect.Recorder
}

// clockEpoch is the instant every member of the process counts trace
// timestamps and latency stamps from. One epoch, not one per telemetry
// bundle, so members sharing a recorder write one time line; and a
// time.Time that carries a monotonic reading, so sinceEpoch never reads
// the wall clock.
var clockEpoch = time.Now()

// sinceEpoch returns the time since clockEpoch: the trace timestamp, and
// the stamp client operations measure their latencies between.
func sinceEpoch() time.Duration { return time.Since(clockEpoch) }

// newTrace mints a cluster-unique causal trace ID for a client operation
// starting at this member: the member's identity plus a fresh Lamport
// tick (the same clock the engines advance, so IDs stay unique across
// local and message-driven activity).
func (m *Member) newTrace() proto.TraceID {
	return proto.TraceID{Node: m.id, Seq: uint64(m.clock.Tick())}
}

// countMessage records one outbound protocol message in m.sent, which
// MessagesSent, Stats and the hierlock_messages_sent_total collector read.
func (m *Member) countMessage(k proto.Kind) {
	m.sent[min(int(k), len(m.sent)-1)].Add(1)
}

// messages snapshots m.sent.
func (m *Member) messages() metrics.Messages {
	var out metrics.Messages
	for k := range out.ByKind {
		out.ByKind[k] = m.sent[k].Load()
	}
	out.Unknown = m.sent[len(out.ByKind)].Load()
	return out
}

// sentKinds are the message kinds a member sends, each exported under its
// own name (heartbeats are the transport's own, and not counted).
var sentKinds = append(slices.Clone(metrics.Kinds), proto.KindProbe, proto.KindClaim,
	proto.KindRecovered, proto.KindJoin, proto.KindJoinAck, proto.KindLeave, proto.KindLeaveAck)

var detached telemetry // the bundle of a member with no telemetry attached

// SetTelemetry attaches observability sinks to the member and registers
// its scrape-time collectors (lock-table gauges; transport queue, link
// and wire-volume metrics for TCP members). Call it once, before client
// operations (inbound delivery may already be running); a second call
// panics. The member's counters run from its start: what client
// operations counted before the attach is folded in at the registry's
// first read.
func (m *Member) SetTelemetry(t Telemetry) {
	tel := m.wire(t)
	if !m.tel.CompareAndSwap(&detached, tel) { // published whole: delivery may already be running
		panic("hierlock: SetTelemetry called twice")
	}
	// Readers of the ring and of the registry (the auditor's counters and
	// report among them) pull in what the stripes stage; hooked once tel
	// is in force, so that a fold finds its handles.
	tel.rec.OnRead(m.flush)
	tel.reg.OnRead(m.pull)
}

// wire builds the bundle for t: handles resolved, collectors registered.
func (m *Member) wire(t Telemetry) *telemetry {
	tel := &telemetry{reg: t.Registry, rec: t.Trace, log: t.Logger, bb: t.Blackbox}
	tel.bb.Follow(introspect.Source{Trace: tel.rec, Locks: m.Inventory, Health: m.HealthSample})
	reg := t.Registry
	if reg == nil {
		return tel
	}
	// Messages are counted once, in m.sent, and rendered from there at
	// scrape.
	reg.Collect(metrics.MetricMessagesTotal, "Protocol messages sent, by kind.", "counter",
		func(emit func(metrics.Labels, float64)) {
			sent := m.messages()
			for _, k := range sentKinds {
				emit(metrics.Labels{"kind": k.String()}, float64(sent.ByKind[k]))
			}
			emit(metrics.Labels{"kind": "unknown"}, float64(sent.Unknown))
		})
	tel.requests = reg.Counter(metrics.MetricRequestsTotal,
		"Client lock requests issued (including upgrades and local joins).", nil)
	tel.sharedJoins = reg.Counter(metrics.MetricSharedJoinsTotal,
		"Acquisitions satisfied by joining an existing local hold.", nil)

	// Per-operation SLO families, every (op, outcome) series pre-registered
	// at zero so the first scrape is complete before any traffic.
	for oi, op := range metrics.OpKinds {
		for ci, oc := range metrics.Outcomes {
			tel.series[latency(oi, ci)] = reg.Histogram(metrics.MetricOpLatency,
				"End-to-end client operation latency in seconds, by operation and grant outcome.",
				bounds(latency(oi, ci)), metrics.Labels{"op": op, "outcome": oc})
		}
	}
	tel.series[seriesWait] = reg.Histogram(metrics.MetricQueueWait,
		"Per-lock admission queue wait in seconds, request issue to protocol entry.",
		bounds(seriesWait), nil)
	tel.series[seriesHops] = reg.Histogram(metrics.MetricTokenHops,
		"Token transfers observed per granted request (0 = pure local grant; Figure 5).",
		bounds(seriesHops), nil)
	tel.fences = reg.Counter(metrics.MetricFenceTokens,
		"Fencing tokens issued (grants, upgrades, shared joins).", nil)

	// Recovery-phase families, pre-registered at zero so the first scrape
	// is complete even on a node that never runs a round.
	tel.recRoundDur = reg.Histogram(metrics.MetricRecoveryRoundDuration,
		"Token-regeneration round duration in seconds, first probe to commit.",
		metrics.DefLatencyBuckets, nil)
	tel.regenerated = reg.Counter(metrics.MetricRecoveryRegenerated,
		"Locks reseeded into a recovered topology by completed rounds.", nil)
	tel.recLost = reg.Counter(metrics.MetricRecoveryLostHolds,
		"Client holds demolished by recovery reseeds (surfaced as ErrLockLost).", nil)

	tel.mJoins = reg.Counter(metrics.MetricMembershipJoins,
		"Peers admitted through the JOIN handshake.", nil)
	tel.mLeaves = reg.Counter(metrics.MetricMembershipLeaves,
		"Graceful peer departures processed (LEAVE hand-offs).", nil)
	tel.mHandoff = reg.Counter(metrics.MetricMembershipHandoffLocks,
		"Token locks handed off by departing peers.", nil)
	if m.mgr != nil {
		reg.Collect(metrics.MetricMembershipSize,
			"This member's current view of the cluster size (itself included).",
			"gauge", func(emit func(metrics.Labels, float64)) {
				m.mgrMu.Lock()
				n := len(m.mgr.Nodes())
				m.mgrMu.Unlock()
				emit(nil, float64(n))
			})
	}

	m.registerLockCollectors(reg)
	if m.jn != nil {
		registerJournalCollectors(reg, m.jn)
		m.registerFsyncObserver(reg, tel.rec)
	}
	if bb := tel.bb; bb != nil {
		reg.Collect(metrics.MetricIncidents, "Incidents written to disk, by trigger reason.", "counter",
			func(emit func(metrics.Labels, float64)) {
				st := bb.Stats()
				for _, reason := range introspect.Reasons {
					emit(metrics.Labels{"reason": reason}, float64(st.Written[reason]))
				}
			})
	}
	if tt, ok := m.tr.(*transport.TCPTransport); ok {
		registerTransportCollectors(reg, tt)
	}
	return tel
}

// fsyncStallThreshold is the journal fsync latency at and above which the
// member records a trace.OpFsyncStall (a disk hiccup worth keeping in an
// incident: fsync stalls delay grants under FsyncAlways and group syncs
// alike).
const fsyncStallThreshold = 50 * time.Millisecond

// registerFsyncObserver wires the journal's per-fsync latency into a
// histogram (the cumulative fsync-seconds counter only yields a mean)
// and records stalls in the trace ring.
func (m *Member) registerFsyncObserver(reg *metrics.Registry, rec *trace.Recorder) {
	hist := reg.Histogram(metrics.MetricJournalFsyncLatency,
		"Journal fsync latency in seconds, per fsync.",
		metrics.DefLatencyBuckets, nil)
	m.jn.SetFsyncObserver(func(d time.Duration) {
		hist.ObserveDuration(d)
		if d >= fsyncStallThreshold {
			m.fsyncStalls.Add(1)
			rec.Record(trace.Entry{At: sinceEpoch(), Op: trace.OpFsyncStall, Node: m.id, Trace: proto.TraceID{Seq: uint64(d)}})
		}
	})
}

// registerJournalCollectors registers scrape-time metrics over the
// member's write-ahead journal (size, append volume, fsync latency,
// snapshot rotations). Stats reads are point snapshots; no hot-path
// instrumentation is added to the append path itself.
func registerJournalCollectors(reg *metrics.Registry, jn *journal.Journal) {
	reg.Collect(metrics.MetricJournalRecords,
		"Write-ahead journal records appended.", "counter",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(jn.Stats().Records))
		})
	reg.Collect(metrics.MetricJournalWALBytes,
		"Current write-ahead log file size in bytes.", "gauge",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(jn.Stats().WALBytes))
		})
	reg.Collect(metrics.MetricJournalFsyncs,
		"Journal fsync calls issued.", "counter",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(jn.Stats().Fsyncs))
		})
	reg.Collect(metrics.MetricJournalFsyncSeconds,
		"Cumulative seconds spent in journal fsync.", "counter",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, jn.Stats().FsyncTime.Seconds())
		})
	reg.Collect(metrics.MetricJournalSnapshots,
		"Journal snapshot rotations completed.", "counter",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(jn.Stats().Snapshots))
		})
}

// registerLockCollectors registers the member's scrape-time gauges:
// tracked locks per stripe (taking each stripe's mutex briefly) and the
// Lamport clock. None is per lock, so the scrape does not grow with the
// resources ever named; /debug/locks serves per-lock state.
func (m *Member) registerLockCollectors(reg *metrics.Registry) {
	reg.Collect(metrics.MetricStripeLocks,
		"Tracked locks per shard stripe of the member's lock table.", "gauge",
		func(emit func(metrics.Labels, float64)) {
			for i := range m.shards {
				sh := &m.shards[i]
				sh.mu.Lock()
				n := len(sh.locks)
				sh.mu.Unlock()
				emit(metrics.Labels{"stripe": strconv.Itoa(i)}, float64(n))
			}
		})
	reg.Collect(metrics.MetricLamportClock,
		"The member's Lamport clock (its rate proxies protocol activity).", "gauge",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(m.clock.Now()))
		})
}

// registerTransportCollectors registers scrape-time metrics over a TCP
// transport endpoint: wire volume, per-peer queues and health, and
// link-layer resilience counters.
func registerTransportCollectors(reg *metrics.Registry, t *transport.TCPTransport) {
	peer := func(id proto.NodeID) metrics.Labels {
		return metrics.Labels{"peer": strconv.Itoa(int(id))}
	}
	reg.Collect(metrics.MetricTransportBytes,
		"Transport bytes on peer connections (framing, acks and retransmissions included).",
		"counter", func(emit func(metrics.Labels, float64)) {
			io := t.IOStats()
			emit(metrics.Labels{"direction": "sent"}, float64(io.BytesSent))
			emit(metrics.Labels{"direction": "recv"}, float64(io.BytesRecv))
		})
	reg.Collect(metrics.MetricTransportFrames,
		"Protocol message frames written to and read from peers.",
		"counter", func(emit func(metrics.Labels, float64)) {
			io := t.IOStats()
			emit(metrics.Labels{"direction": "sent"}, float64(io.FramesSent))
			emit(metrics.Labels{"direction": "recv"}, float64(io.FramesRecv))
		})
	reg.Collect(metrics.MetricTransportQueueLen,
		"Per-peer outbound queue occupancy (queued plus unacknowledged).",
		"gauge", func(emit func(metrics.Labels, float64)) {
			for id, q := range t.QueueStats() {
				emit(peer(id), float64(q.Len))
			}
		})
	reg.Collect(metrics.MetricTransportQueueHighWater,
		"Worst per-peer outbound queue occupancy observed.",
		"gauge", func(emit func(metrics.Labels, float64)) {
			for id, q := range t.QueueStats() {
				emit(peer(id), float64(q.HighWater))
			}
		})
	reg.Collect(metrics.MetricTransportQueueFullDrops,
		"Sends rejected because a per-peer queue was at its limit.",
		"counter", func(emit func(metrics.Labels, float64)) {
			for id, q := range t.QueueStats() {
				emit(peer(id), float64(q.FullDrops))
			}
		})
	reg.Collect(metrics.MetricTransportInboxLen,
		"Inbound delivery mailbox occupancy.",
		"gauge", func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(t.InboxStats().Len))
		})
	reg.Collect(metrics.MetricTransportInboxHighWater,
		"Worst inbound delivery mailbox occupancy observed.",
		"gauge", func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(t.InboxStats().HighWater))
		})
	reg.Collect(metrics.MetricTransportRedials,
		"Reconnection attempts to peers.",
		"counter", func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(t.LinkStats().Redials))
		})
	reg.Collect(metrics.MetricTransportRetransmits,
		"Frames retransmitted after reconnects.",
		"counter", func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(t.LinkStats().Retransmits))
		})
	reg.Collect(metrics.MetricTransportDupsSuppressed,
		"Duplicate inbound frames suppressed by the link sequence check.",
		"counter", func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(t.LinkStats().DupsSuppressed))
		})
	reg.Collect(metrics.MetricTransportPeerState,
		"Per-peer link health (0 up, 1 degraded, 2 down).",
		"gauge", func(emit func(metrics.Labels, float64)) {
			for id, st := range t.Health() {
				emit(peer(id), float64(st))
			}
		})
}

// hold tracks one engine-level hold shared by local clients.
type hold struct {
	mode Mode
	refs int
	// upgrading blocks sharing while an upgrade is converting the hold.
	upgrading bool
	// lost marks a hold demolished by a recovery reseed (this node's
	// claim did not account for it): each sharer's Unlock returns
	// ErrLockLost and the engine, which already dropped the hold, is not
	// asked to release again.
	lost bool
}

// waiter tracks the outstanding request on one lock. It lives in the
// lockState and is re-armed per request (see arm).
type waiter struct {
	// ch wakes a parked client. Dispatch sends on it only while parked is
	// set, and a client leaving its wait always un-parks under the shard
	// mutex (draining a grant that raced in), so ch is empty whenever the
	// next request arms the waiter.
	ch chan struct{}
	// parked marks a client blocked on ch without the shard mutex. A
	// grant produced by the client's own dispatch finds it unset and is
	// returned by value instead: the client sees ls.waiter cleared before
	// it ever leaves the mutex.
	parked bool
	// since is the operation's issue stamp (see sinceEpoch), from which the
	// introspection inventory and the watchdog compute wait durations. It is
	// 0 only inside the stripe-mutex hold of a request that may be granted
	// at once, whose grant stamp dispatch then writes here too.
	since time.Duration
	// granted is the grant's stamp (see sinceEpoch), written by dispatch just
	// before the wake-up: a grant read back by value measures its latency
	// to it, and the OpGranted trace entry carries it.
	granted time.Duration
	// trace, mode and upgrade describe the request for the inventory:
	// its causal trace ID, the requested mode (W for upgrades), and
	// whether it is a U→W conversion.
	trace   proto.TraceID
	mode    modes.Mode
	upgrade bool
	// abandoned marks a disowned wait (context canceled, or the member
	// closed): when the grant eventually arrives, the member releases
	// the lock immediately and frees the client slot (requests cannot be
	// retracted from the protocol).
	abandoned bool
	// releaseOnUpgrade marks an Unlock issued while an upgrade was in
	// flight: the W lock is released as soon as the upgrade lands.
	releaseOnUpgrade bool
	// hops counts token transfers delivered to this node while the wait
	// was outstanding, and recovered marks a wait that rode through a
	// recovery reseed. Both are written under the shard mutex; a parked
	// client reads them only after receiving on ch (the channel send,
	// also under the shard mutex, orders the writes before the read), so
	// they classify the grant outcome race-free.
	hops      int
	recovered bool
	// fence is the fencing token minted for the grant, written under the
	// shard mutex just before the wake-up (same ordering argument as
	// hops/recovered).
	fence FenceToken
}

// arm registers the entry's waiter for a new request, field by field: the
// channel stays, everything else starts afresh. The caller holds the shard
// mutex and the lock's admission slot.
func (ls *lockState) arm(since time.Duration, tr proto.TraceID, mode modes.Mode, upgrade bool) *waiter {
	w := &ls.w
	w.parked, w.since, w.granted = false, since, 0
	w.trace, w.mode, w.upgrade = tr, mode, upgrade
	w.abandoned, w.releaseOnUpgrade = false, false
	w.hops, w.recovered, w.fence = 0, false, FenceToken{}
	ls.waiter = w
	return w
}

// await parks the calling client on its armed waiter until the grant
// arrives (nil), RecoveryTimeout expires (a bare ErrLockLost, for the
// caller to account and wrap), ctx is done or the member closes. The caller holds sh.mu and has seen the waiter
// still registered; await releases the mutex. A wait that ends without
// the grant is disowned under the mutex, after a last check for a grant
// that raced in: a lock request is marked abandoned (its grant, when it
// comes, is released at once), an upgrade completes in the background.
func (m *Member) await(ctx context.Context, sh *lockShard, w *waiter) error {
	w.parked = true
	sh.mu.Unlock()
	// With RecoveryTimeout configured, bound the wait: a request whose
	// grant path died with a crashed node and was never regenerated (see
	// docs/OPERATIONS.md) must not block its client forever.
	var recoverC <-chan time.Time
	if m.recoveryTimeout > 0 {
		rt := time.NewTimer(m.recoveryTimeout)
		defer rt.Stop()
		recoverC = rt.C
	}
	var cause error
	select {
	case <-w.ch:
		return nil
	case <-recoverC:
		cause = ErrLockLost
	case <-ctx.Done():
		cause = ctx.Err()
	case <-m.done:
		cause = ErrClosed
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case <-w.ch:
		return nil // granted in the race window: success
	default:
		w.parked, w.abandoned = false, !w.upgrade
		return cause
	}
}

// memberRecovery configures a member's crash-recovery runtime: the full
// node set (recovery rounds span every configured member, and a round
// commits on a majority of them). Nil disables recovery.
type memberRecovery struct {
	nodes []proto.NodeID // all cluster members, including self
	// advertise is the address JOIN announcements carry for this member
	// (empty disables runtime membership).
	advertise string
}

// newMember wires a member to a started transport. jn, when non-nil,
// is the member's opened journal: engines seed from its replayed
// state, every externally-visible transition appends to it, and — when
// recovery is also configured — the replayed locks are reconciled with
// the cluster through a cold-start round. tel, when non-nil, is
// attached before the first frame moves.
func newMember(id, root proto.NodeID, tr transport.Transport, rec *memberRecovery, jn *journal.Journal, tel *Telemetry) (*Member, error) {
	m := &Member{
		id:        id,
		root:      root,
		tr:        tr,
		done:      make(chan struct{}),
		jn:        jn,
		recEpochs: make(map[proto.LockID]uint32),
	}
	for i := range m.shards {
		m.shards[i].m = m
	}
	m.tel.Store(&detached)
	if jn != nil {
		m.replayed = jn.State()
	}
	if rec != nil {
		m.advertise = rec.advertise
		m.roundStart = make(map[proto.LockID]time.Time)
		m.mgr = recovery.NewManager(recovery.Config{
			Self:             id,
			Nodes:            rec.nodes,
			Send:             m.sendRecovery,
			Locks:            m.trackedLockIDs,
			State:            m.recoveryState,
			PrepareReseed:    m.recoveryPrepare,
			Reseed:           m.recoveryReseed,
			Clock:            &m.clock,
			After:            m.afterRecovery,
			Quorum:           len(rec.nodes)/2 + 1,
			LocksReferencing: m.locksReferencing,
			OnRoundStart:     m.recoveryRoundStart,
			OnRoundDone:      m.recoveryRoundDone,
		})
	}
	if tel != nil {
		m.SetTelemetry(*tel)
	}
	if err := tr.Start(m.handle); err != nil {
		return nil, err
	}
	// A journal-restored member must not serve its replayed state as
	// current: another component may have moved on. Cold-start
	// reconciliation runs one regeneration round per replayed lock (or
	// nominates them to the regenerator), landing the whole cluster on
	// a fresh epoch above every journal; a member restarting into a
	// still-running cluster gets hinted forward instead.
	if m.mgr != nil && len(m.replayed) > 0 {
		locks := make([]proto.LockID, 0, len(m.replayed))
		for l := range m.replayed {
			locks = append(locks, l)
		}
		m.mgrMu.Lock()
		m.mgr.ColdStart(locks)
		m.mgrMu.Unlock()
	}
	return m, nil
}

// locksReferencing scans live engine state and the replayed journal
// for locks whose probable-owner chain passes through the dead node,
// feeding crash recovery's eager regeneration.
func (m *Member) locksReferencing(dead proto.NodeID) []proto.LockID {
	var out []proto.LockID
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, ls := range sh.locks {
			if ls.engine.References(dead) {
				out = append(out, id)
			}
		}
		sh.mu.Unlock()
	}
	for id, rec := range m.replayed {
		if rec.Root == dead {
			out = append(out, id)
		}
	}
	return out
}

// sendRecovery transmits one recovery-protocol message with the same
// accounting as engine traffic. Send failures are not surfaced: during
// the recovery window peers are expected to be unreachable, and the
// protocol re-probes until every survivor has claimed. It is the
// manager's Send, so callers hold mgrMu.
func (m *Member) sendRecovery(msg proto.Message) {
	if msg.Kind == proto.KindRecovered {
		m.journalRecovered(msg.Lock, msg.Epoch, msg.Req.Origin)
	}
	m.countMessage(msg.Kind)
	if rec := m.tel.Load().rec; rec != nil {
		rec.Record(trace.Entry{At: sinceEpoch(), Op: trace.OpSend,
			Node: m.id, Lock: msg.Lock, Kind: msg.Kind, From: msg.From,
			To: msg.To, Epoch: msg.Epoch, Trace: proto.MsgTrace(&msg)})
	}
	_ = m.tr.Send(&msg)
}

// journalRecovered makes a regeneration round's outcome durable before
// it becomes externally visible: the first Recovered fan-out for a
// (lock, epoch) is preceded by a synced journal record, so a
// regenerator that crashes mid-broadcast replays an epoch at least as
// new as anything any peer could have observed. Deduplicated per
// (lock, epoch) — retries and hints re-send old epochs freely. Callers
// hold mgrMu (the recovery manager's Send) and no stripe's mutex: the
// Sync below can take as long as the disk does.
func (m *Member) journalRecovered(lock proto.LockID, epoch uint32, root proto.NodeID) {
	if m.jn == nil || m.recEpochs[lock] >= epoch {
		return
	}
	m.recEpochs[lock] = epoch
	err := m.jn.Append(journal.Record{
		Kind: journal.RecEpoch, Lock: lock, Epoch: epoch,
		Token: root == m.id, Root: root, TS: uint64(m.clock.Tick()),
	})
	if err == nil {
		err = m.jn.Sync() // epoch advancement is rare; make it durable now
	}
	if err != nil && !m.closed.Load() {
		m.fail(fmt.Errorf("hierlock: journal: %w", err))
	}
}

// trackedLockIDs snapshots the locks the member holds state for, for
// the recovery manager's per-lock rounds.
func (m *Member) trackedLockIDs() []proto.LockID {
	var out []proto.LockID
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id := range sh.locks {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	return out
}

// recoveryState captures one lock's accountable engine state for a
// recovery claim.
func (m *Member) recoveryState(lock proto.LockID) recovery.State {
	sh, ls := m.state(lock, "")
	defer sh.mu.Unlock()
	e := ls.engine
	return recovery.State{Epoch: e.Epoch(), Held: e.Held(), Token: e.IsToken()}
}

// recoveryPrepare fences one lock's engine for a regeneration round.
func (m *Member) recoveryPrepare(lock proto.LockID, epoch uint32) {
	sh, ls := m.state(lock, "")
	defer sh.mu.Unlock()
	ls.engine.PrepareReseed(epoch)
}

// recoveryReseed installs a completed round's outcome: the engine is
// rebuilt in the recovered topology, re-issuing any pending client
// request; a hold the round did not account for is marked lost so
// Unlock surfaces ErrLockLost.
func (m *Member) recoveryReseed(lock proto.LockID, root proto.NodeID, epoch uint32, accounted modes.Mode, copyset []proto.Request) {
	tel := m.tel.Load()
	// The round is over for this lock however it ended: drop any stamp a
	// round yielded to a higher-ID regenerator left behind, so the stall
	// watchdog never judges a superseded round as wedged. Like every
	// recovery callback, this runs with mgrMu held (roundStart's guard).
	delete(m.roundStart, lock)
	sh, ls := m.state(lock, "")
	defer sh.mu.Unlock()
	ls.reseeded = true
	ls.seedRoot = root
	if w := ls.waiter; w != nil {
		w.recovered = true // the eventual grant is recovery-delayed
	}
	out, lost := ls.engine.Reseed(root, epoch, accounted, copyset)
	tel.regenerated.Inc()
	if lost {
		if h := ls.hold; h != nil {
			h.lost = true
		}
		m.lostHolds.Add(1)
		tel.recLost.Inc()
		// An incident pulls nothing: behind this lock's history, the lost
		// grant included.
		if tel.rec != nil {
			sh.record(trace.Entry{At: sinceEpoch(), Op: trace.OpLockLost,
				Node: m.id, Lock: lock, Epoch: epoch, Mode: accounted})
		}
		if _, err := tel.bb.TriggerDump(introspect.ReasonLockLost); err != nil && tel.log != nil {
			tel.log.Warn("incident failed", "err", err)
		}
		if lg := tel.log; lg != nil {
			lg.Warn("hold lost in crash recovery",
				"lock", uint64(lock), "epoch", epoch, "root", int(root))
		}
	}
	if lg := tel.log; lg != nil {
		lg.Info("lock recovered",
			"lock", uint64(lock), "epoch", epoch, "root", int(root))
	}
	m.dispatch(sh, ls, out)
	m.maybeEvict(sh)
}

// recoveryRoundStart observes a regeneration round this node begins as
// regenerator: it stamps the round's start for the duration histogram
// and records the transition in the trace ring. Runs under mgrMu (every
// Manager entry point is serialized there).
func (m *Member) recoveryRoundStart(lock proto.LockID, proposed uint32) {
	m.roundStart[lock] = time.Now()
	m.tel.Load().rec.Record(trace.Entry{At: sinceEpoch(), Op: trace.OpRoundStart,
		Node: m.id, Lock: lock, Epoch: proposed})
}

// recoveryRoundDone observes a round this node committed: round count
// and duration metrics, a trace entry, and an incident — a recovery
// round is exactly the moment the lead-up is worth preserving. Runs under
// mgrMu. A round yielded to a higher-ID regenerator leaves its roundStart
// stamp behind; the next round on the lock overwrites it.
func (m *Member) recoveryRoundDone(lock proto.LockID, final uint32) {
	tel := m.tel.Load()
	var dur time.Duration
	if t0, ok := m.roundStart[lock]; ok {
		dur = time.Since(t0)
		delete(m.roundStart, lock)
	}
	tel.recRoundDur.ObserveDuration(dur)
	m.flush() // an incident pulls nothing, and no stripe's mutex is held here
	tel.rec.Record(trace.Entry{At: sinceEpoch(), Op: trace.OpRoundDone,
		Node: m.id, Lock: lock, Epoch: final, Trace: proto.TraceID{Seq: uint64(dur)}})
	if _, err := tel.bb.TriggerDump(introspect.ReasonRecoveryRound); err != nil && tel.log != nil {
		tel.log.Warn("incident failed", "err", err)
	}
}

// afterRecovery is the recovery manager's After: fn runs on a tracked
// timer (see afterTracked), so Close can stop it — an untracked retry
// firing after Close would race the teardown and, under a journal, could
// append to a closed WAL — and not at all once Close has begun.
func (m *Member) afterRecovery(d time.Duration, fn func()) {
	m.afterTracked(d, func() {
		if !m.closed.Load() {
			fn()
		}
	})
}

// trackedTimer is one tracked timer. It is registered before it is
// armed, so its callback finds its entry without reading anything written
// after the timer started.
type trackedTimer struct{ *time.Timer }

// afterTracked runs fn under mgrMu after d on a tracked timer: Close
// (stopTimers) cancels timers that have not fired and waits for callbacks
// already in flight, so no tracked callback ever runs concurrently with or
// after teardown completes. Callers hold mgrMu.
func (m *Member) afterTracked(d time.Duration, fn func()) {
	if m.timersStopped {
		return
	}
	if m.timers == nil {
		m.timers = make(map[*trackedTimer]struct{})
	}
	t := new(trackedTimer)
	m.timers[t] = struct{}{}
	m.timerWG.Add(1)
	t.Timer = time.AfterFunc(d, func() {
		defer m.timerWG.Done()
		m.mgrMu.Lock()
		defer m.mgrMu.Unlock()
		if m.timersStopped {
			return
		}
		delete(m.timers, t)
		fn()
	})
}

// stopTimers cancels every tracked timer and waits for callbacks that
// already fired to finish. Timers whose Stop fails are mid-flight: their
// callbacks find timersStopped and return, or have run already.
func (m *Member) stopTimers() {
	m.mgrMu.Lock()
	m.timersStopped = true
	for t := range m.timers {
		if t.Stop() {
			m.timerWG.Done()
		}
	}
	m.timers = nil
	m.mgrMu.Unlock()
	m.timerWG.Wait()
}

// detectorState returns the transport failure detector's current
// opinion of a peer (ok is false when the transport has no detector).
func (m *Member) detectorState(peer proto.NodeID) (recovery.PeerState, bool) {
	if t, ok := m.tr.(*transport.TCPTransport); ok {
		return t.PeerHealth(peer), true
	}
	return recovery.PeerHealthy, false
}

// Detector callbacks are dispatched on fresh goroutines and can be
// applied out of the order their transitions occurred in (a peer
// flapping right at the confirm boundary can have its Alive processed
// before its ConfirmDead, permanently marking a live peer dead with no
// further edge to clear it). peerConfirmed and peerAlive therefore
// re-check the detector's state — the ground truth — under mgrMu and
// drop a callback the detector has already moved past: every transition
// fires its callback after the state is set, so the last callback to
// run always observes the final state and applies the matching action.

// peerConfirmed is the failure detector's confirm callback: the peer
// has been silent past ConfirmAfter and is declared dead, which starts
// regeneration rounds for every lock this node tracks.
func (m *Member) peerConfirmed(peer proto.NodeID) {
	if m.mgr == nil || m.closed.Load() {
		return
	}
	m.mgrMu.Lock()
	defer m.mgrMu.Unlock()
	if st, ok := m.detectorState(peer); ok && st != recovery.PeerConfirmed {
		return // stale: the peer was heard from since this confirm fired
	}
	if lg := m.tel.Load().log; lg != nil {
		lg.Warn("peer confirmed dead, starting recovery", "peer", int(peer))
	}
	m.mgr.ConfirmDead(peer)
}

// peerAlive clears a peer's dead mark when its heartbeats resume. A
// node that was falsely confirmed (long pause, partition) rejoins here;
// its fenced engines catch up from recovery hints.
func (m *Member) peerAlive(peer proto.NodeID) {
	if m.mgr == nil || m.closed.Load() {
		return
	}
	m.mgrMu.Lock()
	defer m.mgrMu.Unlock()
	if st, ok := m.detectorState(peer); ok && st == recovery.PeerConfirmed {
		return // stale: the peer has been re-confirmed dead since
	}
	if lg := m.tel.Load().log; lg != nil {
		lg.Info("peer alive again", "peer", int(peer))
	}
	m.mgr.Alive(peer)
}

// RecoveryRounds returns how many token-regeneration rounds this member
// has completed as the regenerator (zero when recovery is disabled).
func (m *Member) RecoveryRounds() uint64 {
	if m.mgr == nil {
		return 0
	}
	m.mgrMu.Lock()
	defer m.mgrMu.Unlock()
	return m.mgr.Rounds()
}

// ID returns this member's node identifier.
func (m *Member) ID() int { return int(m.id) }

// Err returns the first internal protocol error observed, if any. A
// non-nil value indicates a bug or a violated transport assumption.
func (m *Member) Err() error {
	if p := m.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records an internal error (first one wins).
func (m *Member) fail(err error) {
	m.firstErr.CompareAndSwap(nil, &err)
}

// MessagesSent returns a snapshot of the protocol messages this member
// has sent, by kind.
func (m *Member) MessagesSent() map[string]uint64 {
	out := make(map[string]uint64, len(metrics.Kinds))
	for _, k := range metrics.Kinds {
		out[k.String()] = m.sent[k].Load()
	}
	return out
}

// HealthSample snapshots the stall watchdog's inputs (see
// internal/watchdog): pending waiters and their worst age, cumulative
// grants, in-flight recovery rounds, journal fsync stalls and transport
// queue occupancy. Cheap enough to call every watchdog tick — it takes
// each stripe mutex briefly, like a metrics scrape.
func (m *Member) HealthSample() watchdog.Sample {
	now := time.Now()
	stamp := now.Sub(clockEpoch) // sinceEpoch, off the same clock read
	s := watchdog.Sample{Now: now, FsyncStalls: m.fsyncStalls.Load()}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		s.TrackedLocks += len(sh.locks)
		s.Grants += sh.grants + sh.sharedJoins
		for _, ls := range sh.locks {
			if w := ls.waiter; w != nil && !w.abandoned {
				s.Waiters++
				if age := stamp - w.since; age > s.OldestWaiterAge {
					s.OldestWaiterAge = age
				}
			}
		}
		sh.mu.Unlock()
	}
	m.mgrMu.Lock()
	for _, t0 := range m.roundStart {
		s.RoundsInFlight++
		if age := now.Sub(t0); age > s.OldestRoundAge {
			s.OldestRoundAge = age
		}
	}
	m.mgrMu.Unlock()
	if t, ok := m.tr.(*transport.TCPTransport); ok {
		for _, q := range t.QueueStats() {
			s.QueueLen += q.Len
			if q.Limit > s.QueueLimit {
				s.QueueLimit = q.Limit
			}
		}
		in := t.InboxStats()
		s.QueueLen += in.Len
		if in.Limit > s.QueueLimit {
			s.QueueLimit = in.Limit
		}
	}
	return s
}

// TrackedLocks returns the number of locks the member currently holds
// state for. Idle locks (no hold, no waiter, engine at its initial
// state) are evicted from the table, so the count stays proportional to
// the working set rather than to every resource ever named.
func (m *Member) TrackedLocks() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.locks)
		sh.mu.Unlock()
	}
	return n
}

// Inventory snapshots the member's per-lock protocol state for the
// /debug/locks endpoint and lockctl: epoch, token ownership, held and
// pending modes, frozen modes, copyset, probable-owner next hop, the
// local queue and this node's own waiter with its registration-stamped
// wait duration. Each shard's mutex is held briefly in turn, so the
// snapshot is internally consistent per lock, not across locks.
func (m *Member) Inventory() introspect.NodeInventory {
	inv := introspect.NodeInventory{Node: int(m.id)}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, ls := range sh.locks {
			var wi *introspect.Waiter
			if w := ls.waiter; w != nil {
				wi = &introspect.Waiter{
					Mode:    introspect.ModeString(w.mode),
					Upgrade: w.upgrade,
				}
				if !w.trace.IsZero() {
					wi.Trace = w.trace.String()
				}
				if w.since != 0 {
					wi.WaitNS = (sinceEpoch() - w.since).Nanoseconds()
				}
			}
			li := introspect.EngineInfo(ls.engine, wi)
			li.Resource = ls.res
			inv.Locks = append(inv.Locks, li)
		}
		sh.mu.Unlock()
	}
	inv.Sort()
	return inv
}

// Stats is a snapshot of a member's client-side observability counters.
type Stats struct {
	// Acquires counts completed lock acquisitions (including upgrades and
	// shared joins).
	Acquires uint64
	// SharedJoins counts acquisitions satisfied by joining an existing
	// local hold (zero protocol messages).
	SharedJoins uint64
	// MessagesSent totals the protocol messages sent.
	MessagesSent uint64
	// LostHolds counts holds demolished by crash-recovery reseeds (each
	// surfaced to its client as ErrLockLost).
	LostHolds uint64
}

// Stats returns a snapshot of the member's counters.
func (m *Member) Stats() Stats {
	var grants, joins uint64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		grants += sh.grants
		joins += sh.sharedJoins
		sh.mu.Unlock()
	}
	sent := m.messages()
	return Stats{
		Acquires:     grants + joins,
		SharedJoins:  joins,
		MessagesSent: sent.Total(),
		LostHolds:    m.lostHolds.Load(),
	}
}

// Close shuts the member down: new operations fail with ErrClosed and
// every client blocked in Lock or Upgrade is unblocked with ErrClosed
// (their requests cannot be retracted from the protocol; a grant that
// still arrives is auto-released). Held locks are not released remotely;
// close only after unlocking (the protocol, like the paper's, assumes
// participants do not vanish).
func (m *Member) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(m.done)
	// Stop tracked timers (recovery retries, deferred peer retirements)
	// before tearing the transport down: a retry that already fired
	// drains harmlessly (closed is set), and none remain after this.
	m.stopTimers()
	m.tel.Load().bb.Close() // no incident write outlives Close
	err := m.tr.Close()
	if m.jn != nil {
		// Final group sync: everything appended is durable at close.
		if jerr := m.jn.Close(); err == nil {
			err = jerr
		}
	}
	m.flush()
	return err
}

// EpochOf returns the named resource's current recovery epoch at this
// member (0 for a lock that has never been through a regeneration
// round or journal replay).
func (m *Member) EpochOf(resource string) uint32 {
	sh, ls := m.state(lockIDFor(resource), resource)
	defer sh.mu.Unlock()
	return ls.engine.Epoch()
}

// JournalStats is a snapshot of a member's write-ahead journal
// counters (see the -data-dir / -fsync server flags).
type JournalStats struct {
	// Records counts journal records appended since the member started.
	Records uint64
	// WALBytes is the bytes of the records in the write-ahead log since
	// the last snapshot. The file is longer: it is zero-filled past them.
	WALBytes int64
	// Fsyncs counts WAL syncs (fdatasync where the OS has it); FsyncTime
	// is their cumulative duration.
	Fsyncs    uint64
	FsyncTime time.Duration
	// Snapshots counts snapshot rotations (WAL compactions).
	Snapshots uint64
	// Locks is the number of distinct locks with journaled state.
	Locks int
}

// JournalStats returns the member's journal counters; ok is false when
// the member runs without a journal.
func (m *Member) JournalStats() (JournalStats, bool) {
	if m.jn == nil {
		return JournalStats{}, false
	}
	st := m.jn.Stats()
	return JournalStats{
		Records:   st.Records,
		WALBytes:  st.WALBytes,
		Fsyncs:    st.Fsyncs,
		FsyncTime: st.FsyncTime,
		Snapshots: st.Snapshots,
		Locks:     st.Locks,
	}, true
}

// state returns (creating lazily) the shard and entry for a lock, with
// the shard mutex HELD — the caller must unlock sh.mu. Every member
// derives the same initial topology: the configured root node holds the
// token and is everyone's initial parent, so a freshly created engine is
// always protocol-correct regardless of when it springs into existence.
func (m *Member) state(lock proto.LockID, res string) (*lockShard, *lockState) {
	sh := &m.shards[uint64(lock)%lockShardCount]
	sh.mu.Lock()
	ls, ok := sh.locks[lock]
	if !ok {
		if sh.locks == nil {
			sh.locks = make(map[proto.LockID]*lockState)
		}
		// A lock that has been through recovery rounds has a different
		// initial topology: the regenerated root holds the token at the
		// recovered epoch. Seeding the fresh engine from the recovery
		// table keeps lazily recreated engines protocol-correct and still
		// evictable (the seeded state is their AtInitialState baseline).
		// Between the static topology and the recovery table sits the
		// replayed journal: a restarted member resumes each lock at its
		// journaled epoch and token ownership (holds are never restored —
		// client holds die with the process) until a recovery round
		// supersedes the replay.
		parent, token, epoch := m.root, m.id == m.root, uint32(0)
		seedRoot := m.root
		fenceReplay := false
		if rec, ok := m.replayed[lock]; ok {
			parent, token, epoch = rec.Root, rec.Token, rec.Epoch
			seedRoot = rec.Root
			if token {
				parent = m.id
				// A replayed token may have been superseded while this
				// process was down: the survivors can have regenerated it
				// at a higher epoch, and serving grants from the stale
				// copy would break mutual exclusion. With recovery
				// enabled the engine therefore starts FENCED — requests
				// are recorded silently — until the cold-start
				// reconciliation (a round or a catch-up hint) reseeds it.
				// Without recovery there is no reconciliation to wait
				// for, so the replayed token is trusted as-is.
				fenceReplay = m.mgr != nil
			}
		}
		if m.mgr != nil {
			if s, ok := m.mgr.SeedFor(lock); ok {
				parent, token, epoch = s.Root, m.id == s.Root, s.Epoch
				seedRoot = s.Root
				fenceReplay = false
			}
		}
		e := hlock.New(m.id, lock, parent, token, &m.clock, hlock.Options{})
		if epoch != 0 {
			e.SeedEpoch(epoch)
		}
		if fenceReplay {
			e.PrepareReseed(epoch)
		}
		_, recorded := m.replayed[lock]
		ls = &lockState{
			id:       lock,
			sh:       sh,
			res:      res,
			engine:   e,
			w:        waiter{ch: make(chan struct{}, 1)},
			seedRoot: seedRoot,
			logged:   journaled{epoch: e.Epoch(), token: e.IsToken()},
			recorded: recorded,
		}
		sh.locks[lock] = ls
	} else if res != "" && ls.res == "" {
		ls.res = res
	}
	return sh, ls
}

// shardEvictThreshold is the per-stripe table size that triggers an
// idle-entry sweep. Sweeping on a threshold rather than after every
// operation keeps hot locks resident (no engine realloc churn on a
// lock/unlock loop) while still bounding the table: a member can track
// at most lockShardCount*shardEvictThreshold idle entries plus whatever
// is genuinely in use.
const shardEvictThreshold = 32

// maybeEvict sweeps the stripe's idle entries once the stripe has grown
// past shardEvictThreshold. An entry is idle when no client is waiting
// or admitted, nothing is held, and the engine is observably identical
// to a freshly constructed one (token/parent at their initial topology,
// no queue, no copyset, no frozen modes, no grant bookkeeping).
// Re-creating an entry on next use yields an equivalent engine, so
// eviction has no protocol effect; it bounds member memory to the locks
// actually in use rather than every resource ever named. Callers hold
// sh.mu.
func (m *Member) maybeEvict(sh *lockShard) {
	if len(sh.locks) < shardEvictThreshold {
		return
	}
	m.sweepLocked(sh)
}

// sweepLocked evicts every idle entry in the stripe, returning the
// number evicted. Callers hold sh.mu.
func (m *Member) sweepLocked(sh *lockShard) int {
	n := 0
	for id, ls := range sh.locks {
		if ls.waiter != nil || ls.hold != nil || ls.admitted ||
			!ls.engine.AtInitialState() {
			continue
		}
		delete(sh.locks, id)
		n++
	}
	if n > 0 && m.tel.Load().rec != nil {
		sh.record(trace.Entry{At: sinceEpoch(), Op: trace.OpEvict, Node: m.id, Epoch: uint32(n)})
	}
	return n
}

// EvictIdle immediately evicts every idle lock entry from the member's
// table, returning the number evicted. The background sweep triggers
// lazily on table growth; EvictIdle forces a full pass, useful after a
// burst over many distinct resources (and in tests asserting the table
// is bounded).
func (m *Member) EvictIdle() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += m.sweepLocked(sh)
		sh.mu.Unlock()
	}
	return n
}

// freeSlot gives up the per-lock client-admission slot: to the client
// that has queued for it longest, or to nobody. The caller holds the
// shard mutex and owns the slot.
func (ls *lockState) freeSlot() {
	if len(ls.admitQ) == 0 {
		ls.admitted = false
		return
	}
	ls.admitQ[0] <- struct{}{} // ownership passes: admitted stays set
	ls.admitQ = slices.Delete(ls.admitQ, 0, 1)
}

// Lock acquires the named resource in the given mode, blocking until
// granted or ctx is done. On context cancellation the request itself
// cannot be retracted; the member disowns it and auto-releases the lock
// the moment it is granted.
func (m *Member) Lock(ctx context.Context, resource string, mode Mode) (*Lock, error) {
	return m.LockWithPriority(ctx, resource, mode, 0)
}

// LockWithPriority is Lock with a request priority: when requests queue
// at the lock's token node, higher priorities are served first (FIFO
// within a level). Priority 0 is the default FIFO arbitration; sustained
// high-priority traffic can starve lower priorities, by design.
func (m *Member) LockWithPriority(ctx context.Context, resource string, mode Mode, priority uint8) (*Lock, error) {
	tel := m.tel.Load()
	if !mode.Valid() || mode == modes.None {
		return nil, fmt.Errorf("hierlock: invalid mode %v", mode)
	}
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if m.leaving.Load() {
		return nil, ErrLeaving
	}
	lockID := lockIDFor(resource)
	tr := m.newTrace()

	sh, ls := m.state(lockID, resource)
	sh.cnt.requests++
	// The request's clock reads. A request granted at once (slot free, token
	// in hand, nothing to send) reads one: dispatch stamps the grant under
	// this mutex, and that stamp is its issue too, so its latency is 0 and
	// its OpGranted entry carries the acquire the ring derives. Any other
	// request reads its issue stamp (start) before it joins, parks or sends
	// and records its OpAcquire at it; its grant is stamped as well.
	rec := tel.rec
	var start time.Duration

	// Local sharing: if the member already holds exactly this mode and
	// the mode is compatible with itself (IR, R, IW), additional local
	// clients join the existing hold with no protocol traffic.
	// Exclusive classes (U, W) and mode mismatches go through the full
	// path.
	if h := ls.hold; h != nil && !h.upgrading &&
		h.mode == mode && modes.Compatible(mode, mode) {
		h.refs++
		start = sinceEpoch() // a join's issue and its grant: latency 0
		fence := m.mintFence(sh, ls)
		sh.sharedJoins++
		if rec != nil {
			m.noteAcquire(sh, start, lockID, mode, tr)
			sh.note(&trace.Entry{At: start, Op: trace.OpGranted,
				Node: m.id, Lock: lockID, Mode: mode, Trace: tr})
		}
		sh.cnt.joins++
		sh.cnt.stageGrant(metrics.OpLock, metrics.OutcomeLocal, 0, 0)
		sh.mu.Unlock()
		return &Lock{ls: ls, seq: fence.Seq, epoch: fence.Epoch, mode: mode}, nil
	}

	// Admission: one client operation per lock per member at a time. A
	// free slot is a word set under the shard mutex: the uncontended caller
	// never leaves the mutex, never enters the three-way wait and so never
	// touches the member-wide done channel.
	waited := ls.admitted
	if !waited {
		ls.admitted = true
	} else {
		// Taken: queue for it and wait without the mutex. Whoever frees the
		// slot pops the head of the queue and passes it the slot.
		start = sinceEpoch()
		if rec != nil {
			m.noteAcquire(sh, start, lockID, mode, tr)
		}
		turn := make(chan struct{}, 1)
		ls.admitQ = append(ls.admitQ, turn)
		sh.mu.Unlock()
		var cause error
		select {
		case <-turn:
		case <-ctx.Done():
			cause = ctx.Err()
		case <-m.done:
			cause = ErrClosed
		}
		sh.mu.Lock()
		if cause != nil {
			// Giving up: leave the queue, or, popped in the race window,
			// pass on the slot that came with it.
			if i := slices.Index(ls.admitQ, turn); i >= 0 {
				ls.admitQ = slices.Delete(ls.admitQ, i, i+1)
			} else {
				ls.freeSlot()
				m.maybeEvict(sh)
			}
			sh.mu.Unlock()
			return nil, cause
		}
	}

	if m.closed.Load() {
		ls.freeSlot()
		m.maybeEvict(sh)
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	// Admission is complete: everything before this point was local
	// head-of-line queueing, not protocol latency. A slot that was free
	// waited zero, recorded without a clock read.
	var queued time.Duration
	if waited {
		queued = sinceEpoch() - start
	}
	sh.cnt.stage(seriesWait, int64(queued))
	w := ls.arm(start, tr, mode, false)
	out, err := ls.engine.AcquireTraced(mode, priority, tr)
	if !waited && (err != nil || len(out.Msgs) > 0 || len(out.Events) != 1) {
		// Not granted at once: issued now, before dispatch sends. A waiter
		// whose since is still 0 when dispatch grants it was granted at once.
		start = sinceEpoch()
		w.since = start
		if rec != nil {
			m.noteAcquire(sh, start, lockID, mode, tr)
		}
	}
	if err != nil {
		ls.waiter = nil
		ls.freeSlot()
		m.maybeEvict(sh)
		sh.mu.Unlock()
		return nil, err
	}
	m.dispatch(sh, ls, out)
	// A grant produced by our own dispatch (token already in hand) has
	// cleared the waiter before anyone else can touch it: that is the
	// local fast path, and the grant is read back by value — no channel,
	// no RecoveryTimeout timer, and its latency ends at the stamp dispatch
	// took (0 for a grant at once). Checked under the shard mutex, so a
	// remote grant racing in through handle cannot be misclassified.
	localGrant := ls.waiter == nil
	var d time.Duration
	if localGrant {
		d = w.granted - w.since
	} else {
		if err := m.await(ctx, sh, w); err != nil {
			if err == ErrLockLost {
				err = m.lostWait(sh, metrics.OpLock, lockID, mode, tr, start, resource)
			}
			return nil, err
		}
		// A parked client's wait ends when it wakes, not when the grant
		// was produced.
		d = sinceEpoch() - start
		sh.mu.Lock()
	}
	// The waiter is ours until Unlock frees the admission slot.
	sh.grants++
	sh.cnt.stageGrant(metrics.OpLock, w.outcome(localGrant), d, w.hops)
	sh.mu.Unlock()
	return &Lock{ls: ls, seq: w.fence.Seq, epoch: w.fence.Epoch, mode: mode}, nil
}

// noteAcquire stages the OpAcquire entry of a request for mode on lock,
// issued at stamp at under trace tr. Callers hold sh.mu and have checked
// that the member has a recorder.
func (m *Member) noteAcquire(sh *lockShard, at time.Duration, lock proto.LockID, mode Mode, tr proto.TraceID) {
	sh.note(&trace.Entry{At: at, Op: trace.OpAcquire, Node: m.id, Lock: lock, Mode: mode, Trace: tr})
}

// outcome classifies a granted wait for the per-operation SLO families.
func (w *waiter) outcome(localGrant bool) int {
	switch {
	case w.recovered:
		return metrics.OutcomeRecovery
	case localGrant:
		return metrics.OutcomeLocal
	}
	return metrics.OutcomeRemote
}

// lostWait accounts for a wait on sh that outlived RecoveryTimeout (SLO
// outcome, trace entry and incident) and builds its error. Callers
// hold no stripe's mutex.
func (m *Member) lostWait(sh *lockShard, op int, lock proto.LockID, mode modes.Mode, tr proto.TraceID, start time.Duration, res string) error {
	sh.mu.Lock()
	sh.cnt.stage(latency(op, metrics.OutcomeLost), int64(sinceEpoch()-start))
	sh.mu.Unlock()
	m.flush() // as in recoveryRoundDone
	tel := m.tel.Load()
	tel.rec.Record(trace.Entry{At: sinceEpoch(), Op: trace.OpLockLost,
		Node: m.id, Lock: lock, Mode: mode, Trace: tr})
	_, _ = tel.bb.TriggerDump(introspect.ReasonLockLost)
	return fmt.Errorf("hierlock: no grant for %q within recovery timeout %v: %w",
		res, m.recoveryTimeout, ErrLockLost)
}

// Lock is a held lock handle: 32 bytes, the allocation a resident
// Lock/Unlock pair makes.
type Lock struct {
	// ls is the lock's entry; its stripe is ls.sh and the member ls.sh.m.
	// An entry with a hold or its admission slot taken is never evicted, so
	// it stays the live one from grant to release and no operation on the
	// handle looks the entry up again. Its res, which every client Lock
	// sets, is the handle's Resource.
	ls *lockState
	// latest is the grant event a successful upgrade recorded, nil until
	// there is one.
	latest atomic.Pointer[grantEvent]

	// seq, epoch and mode are the grant event the handle was built with
	// (its FenceToken flattened, so the three pack with the two flags),
	// never written again. Each grant event is immutable once published,
	// so Mode and Fence take no mutex, and a mode and a fence read through
	// one granted call belong to one grant event.
	seq   uint64
	epoch uint32
	// released and upgrading (an Upgrade in flight) are guarded by
	// ls.sh.mu, which every method that looks at them takes anyway.
	released  bool
	upgrading bool
	mode      Mode
}

// grantEvent is a handle's held mode and the fencing token minted with it.
type grantEvent struct {
	mode  Mode
	fence FenceToken
}

// granted returns the handle's most recent grant event.
func (l *Lock) granted() grantEvent {
	if g := l.latest.Load(); g != nil {
		return *g
	}
	return grantEvent{l.mode, FenceToken{Epoch: l.epoch, Seq: l.seq}}
}

// regrant records a new grant event on the handle. Callers hold l.ls.sh.mu,
// which orders the events.
func (l *Lock) regrant(mode Mode, fence FenceToken) {
	l.latest.Store(&grantEvent{mode, fence})
}

// Resource returns the locked resource name: the name the handle was
// locked by, unless another name maps to the same LockID, in which case
// both share one lock and the name its entry was first locked by.
func (l *Lock) Resource() string { return l.ls.res }

// Mode returns the currently held mode (W after a successful upgrade).
func (l *Lock) Mode() Mode { return l.granted().mode }

// Fence returns the fencing token minted with the handle's most recent
// grant event (acquire or successful upgrade). See FenceToken for the
// ordering contract.
func (l *Lock) Fence() FenceToken { return l.granted().fence }

// Unlock releases the lock. When several local clients share the hold
// (self-compatible modes), only the last Unlock releases it for real. If
// an upgrade is in flight (after a canceled Upgrade call), the release
// happens automatically once the upgrade lands. Unlock works on a closed
// member too — local state is cleaned up and undeliverable protocol
// messages are dropped silently.
func (l *Lock) Unlock() error {
	ls := l.ls
	sh := ls.sh
	m := sh.m
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if l.released {
		return ErrReleased
	}
	l.released = true
	if l.upgrading {
		if w := ls.waiter; w != nil {
			w.releaseOnUpgrade = true
			return nil
		}
	}
	if h := ls.hold; h != nil && h.lost {
		// A recovery reseed already demolished this hold in the engine;
		// clean up the local bookkeeping and tell the client.
		h.refs--
		if h.refs <= 0 {
			ls.hold = nil
			ls.freeSlot()
			m.maybeEvict(sh)
		}
		return ErrLockLost
	}
	if h := ls.hold; h != nil && h.refs > 1 {
		h.refs--
		return nil
	}
	ls.hold = nil
	tr := m.newTrace()
	if m.tel.Load().rec != nil {
		// A resident pair's second clock read; dispatch took the first.
		sh.noteRelease(sinceEpoch(), ls.id, tr)
	}
	out, err := ls.engine.ReleaseTraced(tr)
	if err != nil {
		return err
	}
	m.dispatch(sh, ls, out)
	ls.freeSlot()
	m.maybeEvict(sh)
	return nil
}

// Upgrade atomically converts a U lock to W without releasing it,
// blocking until all readers drain or ctx is done. On cancellation the
// upgrade itself proceeds in the background (it cannot be retracted); the
// handle then holds W, or the lock is auto-released if Unlock was called
// meanwhile.
func (l *Lock) Upgrade(ctx context.Context) error {
	ls := l.ls
	sh := ls.sh
	m := sh.m
	sh.mu.Lock()
	var err error
	switch {
	case l.released:
		err = ErrReleased
	case l.granted().mode != U:
		err = fmt.Errorf("%w (holding %v)", ErrNotUpgradable, l.granted().mode)
	case l.upgrading:
		err = fmt.Errorf("hierlock: upgrade already in flight")
	case m.closed.Load():
		err = ErrClosed
	case m.leaving.Load():
		err = ErrLeaving
	}
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	l.upgrading = true
	if h := ls.hold; h != nil {
		h.upgrading = true // U is never shared, so refs == 1 here
	}
	sh.cnt.requests++
	tr := m.newTrace()
	start := sinceEpoch()
	if m.tel.Load().rec != nil {
		m.noteAcquire(sh, start, ls.id, modes.W, tr)
	}
	w := ls.arm(start, tr, modes.W, true)
	out, err := ls.engine.UpgradeTraced(0, tr)
	if err != nil {
		ls.waiter = nil
		if h := ls.hold; h != nil {
			h.upgrading = false
		}
		l.upgrading = false
		sh.mu.Unlock()
		return err
	}
	m.dispatch(sh, ls, out)
	localGrant := ls.waiter == nil // see LockWithPriority
	var d time.Duration
	if localGrant {
		d = w.granted - start
	} else {
		if err := m.await(ctx, sh, w); err != nil {
			// The upgrade completes in the background if its grant ever
			// arrives; the waiter stays registered, so a subsequent Unlock
			// is handled via releaseOnUpgrade.
			if err == ErrLockLost {
				err = m.lostWait(sh, metrics.OpUpgrade, ls.id, modes.W, tr, start, ls.res)
			}
			return err
		}
		d = sinceEpoch() - start
		sh.mu.Lock()
	}
	sh.grants++
	sh.cnt.stageGrant(metrics.OpUpgrade, w.outcome(localGrant), d, w.hops)
	l.upgrading = false
	l.regrant(W, w.fence)
	sh.mu.Unlock()
	return nil
}

// delivery is the trace entry for a message handled now.
func (m *Member) delivery(msg *proto.Message) trace.Entry {
	return trace.Entry{At: sinceEpoch(), Op: trace.OpDeliver,
		Node: m.id, Lock: msg.Lock, Mode: msg.Mode,
		Kind: msg.Kind, From: msg.From, To: msg.To, Epoch: msg.Epoch,
		Trace: proto.MsgTrace(msg)}
}

// handle is the transport delivery callback (serialized per member).
func (m *Member) handle(msg *proto.Message) {
	tel := m.tel.Load()
	if m.closed.Load() {
		return
	}
	// A lock-protocol message is recorded below, under its shard mutex,
	// behind what the stripe has staged; recovery and membership traffic
	// has no stripe to order against and is written through here.
	rec := tel.rec
	switch msg.Kind {
	case proto.KindProbe, proto.KindClaim, proto.KindRecovered,
		proto.KindJoin, proto.KindJoinAck, proto.KindLeave, proto.KindLeaveAck:
		if rec != nil {
			rec.Record(m.delivery(msg))
		}
	}
	switch msg.Kind {
	case proto.KindProbe, proto.KindClaim, proto.KindRecovered:
		if m.mgr != nil {
			m.mgrMu.Lock()
			m.mgr.HandleMessage(msg)
			m.mgrMu.Unlock()
		}
		return
	case proto.KindJoin:
		m.handleJoin(msg)
		return
	case proto.KindJoinAck:
		m.handleJoinAck(msg)
		return
	case proto.KindLeave:
		m.handleLeave(msg)
		return
	case proto.KindLeaveAck:
		m.handleLeaveAck(msg)
		return
	}
	sh, ls := m.state(msg.Lock, "")
	if rec != nil {
		sh.record(m.delivery(msg))
	}
	if msg.Kind == proto.KindToken {
		if w := ls.waiter; w != nil {
			w.hops++
		}
	}
	out, err := ls.engine.Handle(msg)
	if err != nil {
		m.fail(err)
		if lg := tel.log; lg != nil {
			lg.Error("protocol error", "err", err, "kind", msg.Kind.String(),
				"lock", uint64(msg.Lock), "from", int(msg.From),
				"trace", proto.MsgTrace(msg).String())
		}
	}
	m.dispatch(sh, ls, out)
	m.maybeEvict(sh)
	sh.mu.Unlock()
	if out.Stale && m.mgr != nil {
		// The sender is behind a completed recovery round (pre-crash
		// traffic, or a restarted node): answer with the recovered
		// (root, epoch) so it can catch up without a full round. The hint
		// is a recovery send — its first one per (lock, epoch) journals
		// and syncs — so it goes out under mgrMu, after the stripe is
		// released. A stale step sends nothing, so no frame overtakes it.
		m.mgrMu.Lock()
		m.mgr.Hint(msg.Lock, msg.From)
		m.mgrMu.Unlock()
	}
}

// journalLock appends a journal record when the state replay restores
// (epoch, token ownership) changed since the last record, and on every
// recovery reseed. Holds are not restored, so hold changes are not
// journaled — with one exception: a lock only ever held at its static
// root would otherwise never appear in the journal, a full-cluster
// restart would skip its cold-start round, and its fences would restart
// at epoch 0 below the ones already issued. The first grant on a lock
// the journal has no record of therefore writes one. Called at the top
// of dispatch — after the engine transitioned but before any message or
// client notification leaves the member — so the WAL is always at least
// as new as anything the outside world has seen, modulo the configured
// fsync policy. Callers hold the shard mutex owning ls.
func (m *Member) journalLock(ls *lockState) {
	if m.jn == nil {
		return
	}
	e := ls.engine
	cur := journaled{epoch: e.Epoch(), token: e.IsToken()}
	kind := journal.RecToken
	switch {
	case ls.reseeded:
		kind = journal.RecRecovery
	case cur.epoch != ls.logged.epoch:
		kind = journal.RecEpoch
	case cur.token != ls.logged.token: // RecToken
	case !ls.recorded && e.Held() != modes.None:
		kind = journal.RecGrant
	default:
		return
	}
	ls.reseeded, ls.recorded, ls.logged = false, true, cur
	err := m.jn.Append(journal.Record{
		Kind: kind, Lock: ls.id, Epoch: cur.epoch, Mode: e.Held(),
		Token: cur.token, Root: ls.seedRoot, TS: uint64(m.clock.Tick()),
	})
	if err != nil && !m.closed.Load() {
		m.fail(fmt.Errorf("hierlock: journal: %w", err))
	}
}

// mintFence issues a fresh fencing token for the lock: its current
// recovery epoch plus a Lamport tick. Callers hold the shard mutex
// owning ls, which orders mints on one lock; the clock tick orders
// mints across members along the token's causal path. sh is that shard:
// the mint is one of the words it counts for the registry.
func (m *Member) mintFence(sh *lockShard, ls *lockState) FenceToken {
	sh.cnt.fences++
	return FenceToken{Epoch: ls.engine.Epoch(), Seq: uint64(m.clock.Tick())}
}

// dispatch routes an engine step's output. Callers hold the mutex of sh,
// the shard owning ls; dispatch may recurse (abandoned-grant
// auto-release) but only ever touches ls's own lock.
func (m *Member) dispatch(sh *lockShard, ls *lockState, out hlock.Out) {
	tel := m.tel.Load()
	m.journalLock(ls)
	for i := range out.Msgs {
		msg := &out.Msgs[i]
		m.countMessage(msg.Kind)
		if tel.rec != nil {
			sh.record(trace.Entry{At: sinceEpoch(), Op: trace.OpSend,
				Node: m.id, Lock: msg.Lock, Mode: msg.Mode,
				Kind: msg.Kind, From: msg.From, To: msg.To, Epoch: msg.Epoch,
				Trace: proto.MsgTrace(msg)})
		}
		if err := m.tr.Send(msg); err != nil && !m.closed.Load() {
			if errors.Is(err, transport.ErrUnknown) && m.mgr != nil {
				// The destination is no longer a member (it left after
				// this engine last heard about the lock, so a probable-
				// owner chain or parent pointer still threads through
				// it). Not a protocol error: regenerate the lock among
				// the current members instead. Asynchronous because the
				// lock order is mgrMu before the shard mutex held here.
				lock := msg.Lock
				go func() {
					if m.closed.Load() || m.mgr == nil {
						return
					}
					m.mgrMu.Lock()
					defer m.mgrMu.Unlock()
					m.mgr.Regenerate(lock)
				}()
				continue
			}
			m.fail(fmt.Errorf("hierlock: send: %w", err))
		}
	}
	for _, ev := range out.Events {
		switch ev.Kind {
		case hlock.EventAcquired, hlock.EventUpgraded:
			w := ls.waiter
			if w == nil {
				m.fail(fmt.Errorf("hierlock: lock %d granted with no waiter", ls.id))
				continue
			}
			ls.waiter = nil
			switch {
			case w.abandoned, w.releaseOnUpgrade:
				// The client gave up (canceled, closed, or unlocked
				// mid-upgrade): release immediately, under the abandoned
				// request's trace.
				ls.hold = nil
				rout, err := ls.engine.ReleaseTraced(ev.Trace)
				if err != nil {
					m.fail(err)
				}
				ls.freeSlot()
				m.dispatch(sh, ls, rout)
			default:
				if ev.Kind == hlock.EventUpgraded {
					if h := ls.hold; h != nil {
						h.mode = ev.Mode
						h.upgrading = false
					}
				} else {
					ls.h = hold{mode: ev.Mode, refs: 1}
					ls.hold = &ls.h
				}
				// The grant's clock read, under the stripe mutex: its At and
				// the end of a local grant's latency; for a request granted at
				// once (since 0: LockWithPriority) its issue stamp too.
				w.granted = sinceEpoch()
				var issued time.Duration
				if w.since == 0 {
					w.since, issued = w.granted, w.granted
				}
				if tel.rec != nil {
					sh.note(&trace.Entry{At: w.granted, Op: trace.OpGranted,
						Node: m.id, Lock: ls.id, Mode: ev.Mode, Trace: ev.Trace,
						Issued: issued})
				}
				w.fence = m.mintFence(sh, ls)
				if w.parked {
					w.parked = false
					w.ch <- struct{}{}
				}
			}
		}
	}
}
