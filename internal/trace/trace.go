// Package trace records protocol-level events — message sends and
// deliveries, client operations, grants and releases — into a bounded
// ring buffer for debugging, post-hoc invariant checking and test
// assertions. The simulator and cluster runtime emit into a Recorder when
// one is attached; recording costs nothing when disabled (nil Recorder).
//
// A Recorder has two kinds of consumer. Taps see each entry once, in one
// call per batch, right after the ring took the batch: an entry recorded
// write-through as a batch of its own, an entry a producer staged when
// its batch is admitted, which is no later than the next message event
// the producer stages for that lock's stripe and no later than the next
// read of the ring. Readers of the ring
// — Entries and what is built on it: causal paths, dumps — see
// every request as OpAcquire, OpGranted, OpRelease, although a producer
// may hand in a request granted the moment it was issued, and released
// before anything else happened on its stripe, as one entry: the grant,
// carrying the acquire's stamp (Entry.Issued) and the release's
// (Entry.Released).
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Op classifies a trace entry.
type Op uint8

// Trace entry kinds.
const (
	OpSend    Op = iota + 1 // a protocol message was sent
	OpDeliver               // a protocol message was delivered
	OpAcquire               // a client issued an acquire/upgrade
	OpGranted               // a client request was granted
	OpRelease               // a client released a lock
	_                       // retired: 6 was a frame the simulator's fault layer dropped
	_                       // retired: 7 was a duplicate frame the simulator's fault layer made
	_                       // retired: 8 was a delivery the simulator's fault layer deferred
	_                       // retired: 9 was a frame a simulated crash destroyed
	_                       // retired: 10 was a simulated node's restart
	OpJoin                  // a node joined the running cluster (Epoch: adopted epoch floor)
	OpLeave                 // a node left gracefully (Lock count of handed-off tokens in Epoch)

	// Node events: what a member did besides messages and client
	// operations. They are rare (a healthy run records none), and the
	// auditor and AssembleCausal ignore them. Durations ride in Trace.Seq,
	// in nanoseconds, since no other field of an Entry holds 64 bits that
	// the ring keeps and the JSON dump carries.
	OpRoundStart // this node began a regeneration round for Lock as regenerator (Epoch: proposed epoch)
	OpRoundDone  // a round this node ran for Lock committed (Epoch: final epoch; Trace.Seq: the round's duration)
	OpFsyncStall // a journal fsync took at least the stall threshold (Trace.Seq: its duration)
	OpEvict      // an idle-lock eviction sweep (Epoch: count of entries evicted)
	OpLockLost   // recovery lost a hold on Lock (Mode: the mode the round accounted; Epoch: its epoch), or a wait on it outlived RecoveryTimeout (Mode, Trace: the wait's)
)

// nodeEvent reports whether o is one of the node events, which belong to
// no operation's causal path.
func (o Op) nodeEvent() bool { return o >= OpRoundStart && o <= OpLockLost }

// String names the op.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpDeliver:
		return "deliver"
	case OpAcquire:
		return "acquire"
	case OpGranted:
		return "granted"
	case OpRelease:
		return "release"
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpRoundStart:
		return "round_start"
	case OpRoundDone:
		return "round_done"
	case OpFsyncStall:
		return "fsync_stall"
	case OpEvict:
		return "evict_sweep"
	case OpLockLost:
		return "lock_lost"
	default:
		// The zero Op (and any out-of-range value) is a corrupt or
		// uninitialized entry; print the numeric value so it is
		// distinguishable from every valid op.
		return fmt.Sprintf("invalid(%d)", uint8(o))
	}
}

// Entry is one recorded event.
type Entry struct {
	Seq  uint64        // monotonically increasing per recorder
	At   time.Duration // virtual (simulator) or wall-relative time
	Op   Op
	Node proto.NodeID // acting node (sender for sends, receiver for delivers)
	Lock proto.LockID
	Mode modes.Mode
	// Message fields (OpSend / OpDeliver only).
	Kind     proto.Kind
	From, To proto.NodeID
	// Epoch is the message's recovery epoch (OpSend / OpDeliver);
	// the audit layer keys token conservation per (lock, epoch) with it.
	// A few other ops carry an epoch or a count in it (see Op).
	Epoch uint32
	// Trace is the causal identity of the client operation this event
	// belongs to (zero when untraced). Entries sharing a Trace across the
	// per-node buffers of a cluster are one operation's causal path; see
	// AssembleCausal.
	Trace proto.TraceID
	// Issued, on an OpGranted entry offered to a recorder, is the stamp at
	// which the request was issued when its producer recorded no OpAcquire
	// for it (zero otherwise): a request granted the moment it was issued is
	// one record, not two. Released and ReleaseSeq are the stamp and the
	// trace sequence (of a trace ID minted at Node) of the release that
	// ended the grant, when its producer recorded no OpRelease for it (zero
	// otherwise): the entry is then a finished operation, held over
	// [At, Released]. The taps see that one entry; the ring admits the
	// OpAcquire and OpRelease it stands for around it (see Recorder.admit),
	// so no entry read back from a recorder carries any of the three.
	Issued     time.Duration
	Released   time.Duration
	ReleaseSeq uint64
}

// String renders the entry compactly.
func (e Entry) String() string {
	tr := ""
	if !e.Trace.IsZero() {
		tr = " trace=" + e.Trace.String()
	}
	switch e.Op {
	case OpSend, OpDeliver:
		ep := ""
		if e.Epoch != 0 {
			ep = fmt.Sprintf(" epoch=%d", e.Epoch)
		}
		return fmt.Sprintf("%8.3fs #%d %-7s %v %d→%d lock=%d mode=%v%s%s",
			e.At.Seconds(), e.Seq, e.Op, e.Kind, e.From, e.To, e.Lock, e.Mode, tr, ep)
	default:
		return fmt.Sprintf("%8.3fs #%d %-7s node=%d lock=%d mode=%v%s",
			e.At.Seconds(), e.Seq, e.Op, e.Node, e.Lock, e.Mode, tr)
	}
}

// Recorder is a bounded ring buffer of entries. The zero value is not
// usable; construct with New. Safe for concurrent use.
//
// Record is write-through: the ring, then the taps. A producer on a hot
// path can stage entries and hand them to Admit in batches, provided it
// registers an OnRead hook that admits whatever it still holds — so every
// reader of the ring sees every entry offered so far — and admits what it
// holds for a lock no later than a message event for that lock, so
// what a node did with a lock reaches the taps before anything that lets
// another node act on it. Capacity, Len, Dropped and Seq count entries as
// the ring holds them: a grant that carries its acquire and its release
// (Entry.Issued, Entry.Released) is one entry to the taps and three here.
type Recorder struct {
	// taps observe every batch recorded or admitted, in the order they
	// were installed — once the ring has taken the batch, regardless of
	// capacity eviction — so an online checker (internal/audit) sees the
	// complete event stream even while the debug ring churns. A tap runs on
	// the recording or admitting goroutine, possibly inside a reader's
	// OnRead hook, with no mutex of the recorder held; it must not block,
	// run the OnRead hooks or keep the slice past the call (a producer
	// reuses it), and may read the ring only through Live.
	taps atomic.Pointer[[]func([]Entry)]

	// onRead holds the producers' flush hooks (see OnRead). Both lists are
	// copy-on-write: see push.
	onRead atomic.Pointer[[]func()]

	// The words above are read on every batch and written almost never;
	// the ring state below is written on every admission. Keep them on
	// different cache lines so one core's tap calls do not miss each time
	// another admits a batch.
	_ [64]byte

	// frozen is what the ring's readers see while paused (SetEnabled): a
	// copy of live as it was when the pause took effect. Nil while live.
	frozen atomic.Pointer[ring]

	mu   sync.Mutex
	live ring
}

// ring is a bounded buffer of entries, packed into slots, that overwrites,
// and counts, the oldest once it is full.
type ring struct {
	slots   []slot
	next    int
	full    bool
	dropped uint64
	// seq is the Seq of the newest slot: Seq counts every entry the ring
	// took, so each retained slot's follows from its position.
	seq uint64
}

// slot is an Entry as the ring keeps it: what its readers get back. Seq
// is implied by the slot's position, and Issued, Released and ReleaseSeq
// are zero once admission has expanded them (see Recorder.admit). Fields
// are ordered by size: 47 bytes, padded to 48 against the Entry's 88.
type slot struct {
	at        time.Duration
	lock      proto.LockID
	traceSeq  uint64
	traceNode proto.NodeID
	epoch     uint32
	node      proto.NodeID
	from, to  proto.NodeID
	op        Op
	mode      modes.Mode
	kind      proto.Kind
}

// pack copies what the ring keeps of e into s.
func (s *slot) pack(e *Entry) {
	s.at, s.lock, s.traceSeq, s.traceNode = e.At, e.Lock, e.Trace.Seq, e.Trace.Node
	s.epoch, s.node, s.from, s.to = e.Epoch, e.Node, e.From, e.To
	s.op, s.mode, s.kind = e.Op, e.Mode, e.Kind
}

// entry unpacks s as the entry numbered seq.
func (s *slot) entry(seq uint64) Entry {
	return Entry{Seq: seq, At: s.at, Op: s.op, Node: s.node, Lock: s.lock, Mode: s.mode,
		Kind: s.kind, From: s.from, To: s.to, Epoch: s.epoch,
		Trace: proto.TraceID{Node: s.traceNode, Seq: s.traceSeq}}
}

// len returns the number of slots the ring retains.
func (g *ring) len() int {
	if g.full {
		return len(g.slots)
	}
	return g.next
}

// halves returns the retained slots, oldest first, as the two runs of the
// backing array they occupy.
func (g *ring) halves() [2][]slot {
	if !g.full {
		return [2][]slot{g.slots[:g.next]}
	}
	return [2][]slot{g.slots[g.next:], g.slots[:g.next]}
}

// frozenCopy returns a ring of the retained slots alone, oldest first,
// numbered and counted as g numbers and counts them.
func (g *ring) frozenCopy() *ring {
	h := g.halves()
	slots := append(append(make([]slot, 0, g.len()), h[0]...), h[1]...)
	return &ring{slots: slots, next: len(slots), dropped: g.dropped, seq: g.seq}
}

// retained unpacks the ring's slots into entries, oldest first.
func (g *ring) retained() []Entry {
	n := g.len()
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	seq := g.seq - uint64(n)
	for _, half := range g.halves() {
		for i := range half {
			seq++
			out = append(out, half[i].entry(seq))
		}
	}
	return out
}

// push appends v to the copy-on-write list behind p: readers load the
// pointer and range over a slice nobody writes.
func push[T any](p *atomic.Pointer[[]T], v T) {
	for {
		old := p.Load()
		var list []T
		if old != nil {
			list = append(list, *old...)
		}
		list = append(list, v)
		if p.CompareAndSwap(old, &list) {
			return
		}
	}
}

// SetTap installs fn as the recorder's only observer (nil removes every
// tap). See the taps field for the delivery contract. No-op on a nil
// recorder.
func (r *Recorder) SetTap(fn func([]Entry)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.taps.Store(nil)
		return
	}
	r.taps.Store(&[]func([]Entry){fn})
}

// AddTap installs fn behind the taps already installed, so several
// consumers can observe the same stream. No-op on a nil recorder or nil
// fn.
func (r *Recorder) AddTap(fn func([]Entry)) {
	if r == nil || fn == nil {
		return
	}
	push(&r.taps, fn)
}

// SetEnabled pauses or resumes what the ring's readers (Entries, Len,
// Dropped, DumpLast) see. A pause freezes a copy of the ring, every entry
// offered so far included, and they read that copy until recording
// resumes; the ring itself, its taps and Live carry on. No-op on a nil
// recorder.
func (r *Recorder) SetEnabled(on bool) {
	if r == nil {
		return
	}
	if on {
		r.frozen.Store(nil)
		return
	}
	r.Pull()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen.Load() == nil {
		r.frozen.Store(r.live.frozenCopy())
	}
}

// Enabled reports whether the ring's readers see it live, not frozen
// (false for nil).
func (r *Recorder) Enabled() bool {
	return r != nil && r.frozen.Load() == nil
}

// New creates a recorder that retains the most recent capacity entries.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{live: ring{slots: make([]slot, capacity)}}
}

// Record appends an entry (nil recorders discard silently, so call sites
// need no guards). The installed taps then observe the entry as offered,
// its Seq unassigned, as a batch of one.
func (r *Recorder) Record(e Entry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.admit(&e)
	r.mu.Unlock()
	if taps := r.taps.Load(); taps != nil {
		es := []Entry{e} // the one allocation, and only with a tap to see it
		for _, fn := range *taps {
			fn(es)
		}
	}
}

// Admit is Record for a batch a producer staged: the ring appends the
// entries under one mutex round, then each tap sees the batch, in one
// call — so a tap that reads the ring (Live) finds the whole batch in it.
// The producer's own mutex, held across the call, is what keeps two
// batches of one stripe in order. No-op on a nil recorder.
func (r *Recorder) Admit(es []Entry) {
	if r == nil || len(es) == 0 {
		return
	}
	r.mu.Lock()
	for i := range es {
		r.admit(&es[i])
	}
	r.mu.Unlock()
	if taps := r.taps.Load(); taps != nil {
		for _, fn := range *taps {
			fn(es)
		}
	}
}

// admit appends one entry to the ring as its readers are to see it: in
// front of a grant that carries its acquire (Entry.Issued) the OpAcquire
// its producer did not record, behind one that carries its release
// (Entry.Released) the OpRelease, each at the stamp and with the trace it
// would have had. Each is one pack into its slot, patched there. Callers
// hold r.mu.
func (r *Recorder) admit(e *Entry) {
	if e.Issued != 0 {
		s := r.put(e)
		s.at, s.op = e.Issued, OpAcquire
	}
	r.put(e)
	if e.Released != 0 {
		s := r.put(e)
		s.at, s.op, s.mode = e.Released, OpRelease, modes.None
		s.traceNode, s.traceSeq = e.Node, e.ReleaseSeq
	}
}

// put packs e into the ring's next slot, under the next Seq. Callers hold
// r.mu.
func (r *Recorder) put(e *Entry) *slot {
	g := &r.live
	if g.full {
		g.dropped++
	}
	s := &g.slots[g.next]
	g.next++
	if g.next == len(g.slots) {
		g.next = 0
		g.full = true
	}
	g.seq++
	s.pack(e)
	return s
}

// OnRead registers a staging producer's flush hook: fn must Admit every
// entry the producer still holds. It runs at the start of every read of
// the ring (Len, Dropped, Entries and everything built on them), on Pull
// and before a pause takes effect, without the recorder's mutex held, so
// the ring is exact whenever anyone looks. With a producer registered,
// Entries orders the ring by At: batches from different producers reach
// the ring out of time order, each entry's At says when it happened.
// No-op on a nil recorder or nil fn.
func (r *Recorder) OnRead(fn func()) {
	if r == nil || fn == nil {
		return
	}
	push(&r.onRead, fn)
}

// Pull runs the registered OnRead hooks: when it returns, the ring holds
// every entry offered so far. Nil-safe.
func (r *Recorder) Pull() {
	if r == nil {
		return
	}
	if hooks := r.onRead.Load(); hooks != nil {
		for _, fn := range *hooks {
			fn()
		}
	}
}

// Live returns the entries the ring retains, oldest admitted first, paused
// or not, and runs no OnRead hook: the read for a tap, which may run under
// the very mutex a hook takes, and for a reader that called Pull first.
func (r *Recorder) Live() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live.retained()
}

// shown pulls, takes r.mu and returns the ring the readers see: the frozen
// copy while paused, the live ring otherwise. Callers release r.mu.
func (r *Recorder) shown() *ring {
	r.Pull()
	r.mu.Lock()
	if f := r.frozen.Load(); f != nil {
		return f
	}
	return &r.live
}

// Len returns the number of retained entries (frozen, while paused).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	g := r.shown()
	defer r.mu.Unlock()
	return g.len()
}

// Dropped returns how many entries were evicted from the ring (by the
// pause, while paused).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	g := r.shown()
	defer r.mu.Unlock()
	return g.dropped
}

// Entries returns the retained entries (frozen, while paused) in order:
// admission order, which for a write-through recorder is recording order;
// At order (stable, so simultaneous entries keep their admission order)
// once a staging producer is registered.
func (r *Recorder) Entries() []Entry {
	if r == nil {
		return nil
	}
	out := r.shown().retained()
	r.mu.Unlock()
	if r.onRead.Load() != nil {
		slices.SortStableFunc(out, func(a, b Entry) int { return cmp.Compare(a.At, b.At) })
	}
	return out
}

// Filter returns the retained entries matching keep.
func (r *Recorder) Filter(keep func(Entry) bool) []Entry {
	var out []Entry
	for _, e := range r.Entries() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// String renders the whole retained trace.
func (r *Recorder) String() string {
	var b strings.Builder
	for _, e := range r.Entries() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckFIFO verifies from the retained trace that deliveries on every
// ordered (from, to) link happened in send order: the i-th delivery on a
// link must carry the same (kind, lock, mode) as the i-th send on it. It
// returns a description of the first violation, or "" if none is
// observable. Only meaningful when the ring retained the whole run.
func (r *Recorder) CheckFIFO() string {
	type link struct{ from, to proto.NodeID }
	type sig struct {
		kind proto.Kind
		lock proto.LockID
		mode modes.Mode
	}
	sends := make(map[link][]sig)
	delivered := make(map[link]int)

	entries := r.Entries()
	for _, e := range entries {
		if e.Op == OpSend {
			l := link{e.From, e.To}
			sends[l] = append(sends[l], sig{e.Kind, e.Lock, e.Mode})
		}
	}
	for _, e := range entries {
		if e.Op != OpDeliver {
			continue
		}
		l := link{e.From, e.To}
		i := delivered[l]
		if i >= len(sends[l]) {
			return fmt.Sprintf("link %d→%d: delivery #%d with only %d sends retained",
				l.from, l.to, i+1, len(sends[l]))
		}
		want := sends[l][i]
		got := sig{e.Kind, e.Lock, e.Mode}
		if got != want {
			return fmt.Sprintf("link %d→%d: delivery #%d is %v/%d/%v, sent %v/%d/%v",
				l.from, l.to, i+1, got.kind, got.lock, got.mode, want.kind, want.lock, want.mode)
		}
		delivered[l]++
	}
	return ""
}

// Counts summarizes retained entries per op.
func (r *Recorder) Counts() map[Op]int {
	out := make(map[Op]int)
	for _, e := range r.Entries() {
		out[e.Op]++
	}
	return out
}
