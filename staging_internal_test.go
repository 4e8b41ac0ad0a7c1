package hierlock

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hierlock/internal/audit"
	"hierlock/internal/introspect"
	"hierlock/internal/metrics"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// lockdWiring is the telemetry cmd/lockd attaches with no flags: a
// registry, the trace ring tapped by the auditor, the incident recorder,
// an info-level logger. Members of one test may share it.
type lockdWiring struct {
	reg *metrics.Registry
	rec *trace.Recorder
	aud *audit.Auditor
	bb  *introspect.Recorder
}

func newLockdWiring(ringSize int) *lockdWiring {
	w := &lockdWiring{
		reg: metrics.NewRegistry(),
		rec: trace.New(ringSize),
		bb:  introspect.NewRecorder(0, 4096),
	}
	w.aud = audit.New(audit.Config{Registry: w.reg, Root: 0,
		OnViolation: func(audit.Violation) { _, _ = w.bb.TriggerDump(introspect.ReasonAuditViolation) }})
	w.rec.SetTap(w.aud.Record)
	return w
}

func (w *lockdWiring) attach(m *Member) {
	m.SetTelemetry(Telemetry{
		Registry: w.reg,
		Trace:    w.rec,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		Blackbox: w.bb,
	})
}

// AttachLockdWiring attaches a fresh lockdWiring with a ring of ringSize
// entries to m, for the external test package's benchmark and
// allocation guard.
func AttachLockdWiring(m *Member, ringSize int) (*metrics.Registry, *trace.Recorder, *audit.Auditor, *introspect.Recorder) {
	w := newLockdWiring(ringSize)
	w.attach(m)
	return w.reg, w.rec, w.aud, w.bb
}

// readIncidentRing reads the trace ring an incident holds.
func readIncidentRing(t *testing.T, path string) []trace.Entry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(path, "trace.json"))
	var d trace.Dump
	if err == nil {
		err = json.Unmarshal(data, &d)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d.Entries
}

// residentPairs runs pairs Lock/Unlock pairs per goroutine on m, each
// goroutine cycling its own keysPer W keys.
func residentPairs(t *testing.T, m *Member, goroutines, keysPer, pairs int) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				l, err := m.Lock(ctx, fmt.Sprintf("g%d/key-%d", g, i%keysPer), W)
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Unlock(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// stagedEntries counts the trace entries m's stripes hold back.
func stagedEntries(m *Member) int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.staged)
		sh.mu.Unlock()
	}
	return n
}

// tapCount is a tap that counts the entries it is shown and the entries
// they stand for in the ring: one, plus the acquire a grant carries, plus
// the release it carries.
type tapCount struct {
	mu             sync.Mutex
	entries, stand int
}

func (c *tapCount) tap(es []trace.Entry) {
	c.mu.Lock()
	for _, e := range es {
		c.entries++
		c.stand++
		if e.Issued != 0 {
			c.stand++
		}
		if e.Released != 0 {
			c.stand++
		}
	}
	c.mu.Unlock()
}

func (c *tapCount) read() (entries, stand int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries, c.stand
}

// TestStagedRingExactAtReadAndOrdered: the member holds client-operation
// entries back per stripe, from the taps as from the ring, and records a
// grant made at once and released before anything else was staged on its
// stripe as one entry — and nobody reading the ring or the auditor can
// tell. After resident pairs over 128 locks from four
// goroutines nothing has reached a tap that a full buffer did not push
// there; the first question to the auditor pulls the rest in, and the taps
// have then seen between one and two entries per pair (two where another
// goroutine staged on the stripe between a grant and its release) that
// stand for exactly three, which is what the ring shows, in time order,
// each lock's acquire → granted → release cycles intact. One goroutine
// alone stages exactly one entry per pair. A pause keeps out of what the
// ring's readers see what came after it and nothing before, and blinds
// neither the ring nor a tap; Close admits what no reader pulled.
func TestStagedRingExactAtReadAndOrdered(t *testing.T) {
	const goroutines, keysPer, pairs = 4, 32, 500
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	w := newLockdWiring(1 << 16)
	var seen tapCount
	w.rec.AddTap(seen.tap)
	w.attach(m)
	audited := w.reg.Counter(metrics.MetricAuditEntries, "Trace entries consumed by the protocol auditor.", nil)

	residentPairs(t, m, goroutines, keysPer, pairs)
	const total = goroutines * pairs
	staged := stagedEntries(m)
	if staged == 0 {
		t.Fatal("nothing staged after the run: the test is not exercising staging")
	}
	if tapped, _ := seen.read(); tapped+staged < total || tapped+staged > 2*total {
		t.Fatalf("taps saw %d entries and %d are staged, want between %d and %d in all", tapped, staged, total, 2*total)
	}
	// The auditor is asked first: its answer covers every pair, staged or not.
	rep := w.aud.Snapshot()
	tapped, stand := seen.read()
	if int(rep.Entries) != tapped || rep.Total != 0 || stand != 3*total {
		t.Fatalf("auditor saw %d entries and %d violations; taps saw %d standing for %d; want the same count, 0, and %d (three per pair)",
			rep.Entries, rep.Total, tapped, stand, 3*total)
	}
	if staged := stagedEntries(m); staged != 0 {
		t.Fatalf("%d entries still staged after the auditor was read", staged)
	}
	if got := w.rec.Len(); got != 3*total {
		t.Fatalf("ring has %d entries, want %d (three per pair)", got, 3*total)
	}
	checkResidentRing(t, w.rec.Entries(), 3*total)
	if got := audited.Value(); got != uint64(tapped) {
		t.Fatalf("%s = %d, want the %d entries the taps saw", metrics.MetricAuditEntries, got, tapped)
	}

	// One goroutine: nothing comes between a grant and its release, so a
	// pair is one entry to the taps and the auditor's counter, three to the
	// ring.
	residentPairs(t, m, 1, keysPer, pairs)
	if got := audited.Value(); got != uint64(tapped+pairs) {
		t.Fatalf("%s rose by %d over %d sequential pairs, want one each", metrics.MetricAuditEntries, got-uint64(tapped), pairs)
	}
	if got := w.rec.Len(); got != 3*(total+pairs) {
		t.Fatalf("ring has %d entries, want %d", got, 3*(total+pairs))
	}

	// Paused: the taps keep seeing entries and the ring keeps taking them;
	// its readers see it as it was until it resumes.
	w.rec.SetEnabled(false)
	residentPairs(t, m, 1, keysPer, 50)
	if got := w.rec.Len(); got != 3*(total+pairs) {
		t.Fatalf("the ring's readers saw it grow to %d entries while paused, want %d", got, 3*(total+pairs))
	}
	w.rec.SetEnabled(true)
	if got := w.rec.Len(); got != 3*(total+pairs+50) {
		t.Fatalf("ring has %d entries after the pause, want %d", got, 3*(total+pairs+50))
	}
	if got, want := w.aud.Snapshot().Entries, uint64(tapped+pairs+50); got != want {
		t.Fatalf("auditor saw %d entries across the pause, want %d", got, want)
	}

	// What is staged when the member closes reaches the taps and the ring
	// with no reader's help.
	residentPairs(t, m, 1, keysPer, 5)
	if staged := stagedEntries(m); staged != 5 {
		t.Fatalf("%d entries staged before Close, want %d (one per pair)", staged, 5)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if staged := stagedEntries(m); staged != 0 {
		t.Fatalf("%d entries still staged after Close", staged)
	}
	if got, want := w.rec.Len(), 3*(total+pairs+50+5); got != want {
		t.Fatalf("ring has %d entries after Close, want %d", got, want)
	}
	if got, _ := seen.read(); got != tapped+pairs+50+5 {
		t.Fatalf("taps saw %d entries in all, want %d", got, tapped+pairs+50+5)
	}
}

// checkResidentRing checks a ring that holds nothing but resident
// Lock/Unlock pairs: want entries, At never decreasing, and per lock the
// cycle acquire, granted, release with Seq increasing, the acquire and
// its grant alike in node, lock, mode and trace, and no entry carrying
// the stamps the ring derived the acquire and the release from.
func checkResidentRing(t *testing.T, es []trace.Entry, want int) {
	t.Helper()
	if len(es) != want {
		t.Fatalf("Entries() returned %d entries, want %d", len(es), want)
	}
	type cycle struct {
		next trace.Op
		acq  trace.Entry
		seq  uint64
	}
	locks := make(map[proto.LockID]*cycle)
	for i, e := range es {
		if i > 0 && e.At < es[i-1].At {
			t.Fatalf("entry %d at %v follows one at %v", i, e.At, es[i-1].At)
		}
		c := locks[e.Lock]
		if c == nil {
			c = &cycle{next: trace.OpAcquire}
			locks[e.Lock] = c
		}
		if e.Op != c.next {
			t.Fatalf("entry %d: lock %d has %v where %v is due\n%v", i, e.Lock, e.Op, c.next, e)
		}
		if e.Seq <= c.seq || e.Issued != 0 || e.Released != 0 || e.ReleaseSeq != 0 {
			t.Fatalf("entry %d: Seq %d after %d on its lock, Issued %v, Released %v/%d\n%v", i, e.Seq, c.seq, e.Issued, e.Released, e.ReleaseSeq, e)
		}
		c.seq = e.Seq
		switch e.Op {
		case trace.OpAcquire:
			c.next, c.acq = trace.OpGranted, e
		case trace.OpGranted:
			if a := c.acq; e.Trace != a.Trace || e.Node != a.Node || e.Mode != a.Mode {
				t.Fatalf("entry %d: grant and its acquire differ\n%v\n%v", i, a, e)
			}
			c.next = trace.OpRelease
		case trace.OpRelease:
			c.next = trace.OpAcquire
		}
	}
}

// TestStagedRingKeepsCapacity: neither staging nor the acquire and
// release entries the ring derives let a small ring grow, and what it
// evicts is counted: capacity, Dropped and Seq are all in entries as read,
// three per pair, while the auditor counts entries as handed in, one per
// pair.
func TestStagedRingKeepsCapacity(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	w := newLockdWiring(4)
	w.attach(m)
	residentPairs(t, m, 1, 32, 4*200)
	es := w.rec.Entries()
	if len(es) != 4 || w.rec.Len() != 4 {
		t.Fatalf("a capacity-4 ring returned %d entries, Len() = %d", len(es), w.rec.Len())
	}
	if got := w.aud.Snapshot().Entries; got != 4*200 {
		t.Fatalf("auditor saw %d entries, want one per pair (%d)", got, 4*200)
	}
	if got, want := w.rec.Dropped(), uint64(3*4*200-4); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	// The last four admitted: nothing admitted later is missing.
	var maxSeq uint64
	for _, e := range es {
		maxSeq = max(maxSeq, e.Seq)
	}
	for _, e := range es {
		if e.Seq+3 < maxSeq {
			t.Fatalf("retained entries are not the last four admitted: %v", es)
		}
	}
	if maxSeq != 3*4*200 {
		t.Fatalf("newest Seq = %d, want %d", maxSeq, 3*4*200)
	}
}

// TestSharedRingKeepsCausalOrder: two members of a channel-transport
// cluster write one ring and feed one auditor while a W lock bounces
// between them and one of them cycles private keys besides. Message
// events are written through behind what their stripe has staged, so in
// the shared ring every send precedes its delivery and a holder's grant
// and release precede the token send that follows them; the auditor,
// tapped synchronously, finds nothing. (One contended lock, because the
// link checks need a link's sends recorded in the order they are sent,
// which the shard mutex gives one lock and nothing gives two.)
func TestSharedRingKeepsCausalOrder(t *testing.T) {
	const rounds = 300
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := newLockdWiring(1 << 16)
	w.attach(c.Member(0))
	w.attach(c.Member(1))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				l, err := m.Lock(ctx, "shared/hot", W)
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Unlock(); err != nil {
					t.Error(err)
					return
				}
			}
		}(c.Member(i))
	}
	// Member 0 is the root: its private keys are resident from the start
	// and put no message on the links.
	residentPairs(t, c.Member(0), 1, 64, 2*rounds)
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	if v := w.rec.CheckFIFO(); v != "" {
		t.Fatalf("CheckFIFO: %s", v)
	}
	if rep := w.aud.Snapshot(); rep.Total != 0 {
		t.Fatalf("auditor flagged %d violations: %+v", rep.Total, rep.Violations)
	}
	es := w.rec.Entries()
	type heldKey struct {
		node proto.NodeID
		lock proto.LockID
	}
	type linkKey struct {
		from, to proto.NodeID
		kind     proto.Kind
		lock     proto.LockID
	}
	held := make(map[heldKey]bool)
	inFlight := make(map[linkKey]int)
	sends, grants := 0, 0
	for i, e := range es {
		if i > 0 && e.At < es[i-1].At {
			t.Fatalf("entry %d at %v follows one at %v", i, e.At, es[i-1].At)
		}
		switch e.Op {
		case trace.OpGranted:
			held[heldKey{e.Node, e.Lock}] = true
			grants++
		case trace.OpRelease:
			held[heldKey{e.Node, e.Lock}] = false
		case trace.OpSend:
			sends++
			inFlight[linkKey{e.From, e.To, e.Kind, e.Lock}]++
			if e.Kind == proto.KindToken && held[heldKey{e.From, e.Lock}] {
				t.Fatalf("entry %d: node %d sends lock %d's token before the release of its hold shows\n%v", i, e.From, e.Lock, e)
			}
		case trace.OpDeliver:
			k := linkKey{e.From, e.To, e.Kind, e.Lock}
			if inFlight[k] == 0 {
				t.Fatalf("entry %d: delivery with no earlier send in the ring\n%v", i, e)
			}
			inFlight[k]--
		}
	}
	if grants != 4*rounds {
		t.Fatalf("ring shows %d grants, want %d", grants, 4*rounds)
	}
	if sends == 0 {
		t.Fatal("no token ever moved: the test is not exercising the message path")
	}
}

// TestResidentPathSharesNoMemberMutex: with mgrMu, the member's one
// member-wide mutex, held by the test, a thousand resident pairs under
// lockd's default wiring complete. (The ring's and the auditor's
// mutexes cannot be held from outside; that the path takes none of them
// per entry is DESIGN.md's claim and BenchmarkMemberDefaultTelemetry's
// -cpu 2 figure.)
func TestResidentPathSharesNoMemberMutex(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	newLockdWiring(4096).attach(m)

	m.mgrMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		residentPairs(t, m, 1, 64, 1000)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Error("resident Lock/Unlock pairs block on mgrMu")
	}
	m.mgrMu.Unlock()
	<-done
	if got := m.Stats().Acquires; got != 1000 {
		t.Fatalf("Stats().Acquires = %d, want 1000", got)
	}
}

// scriptRequest is one request of clientScript as a tap of m0's recorder
// is to see it: its lock and mode, and whether its OpAcquire comes as an
// entry of its own.
type scriptRequest struct {
	lock     proto.LockID
	mode     Mode
	separate bool
}

// clientScript runs one of each kind of request on m0, the root of a
// two-member channel cluster: a local grant, a shared join, a request that
// waits for the admission slot, one whose token is remote (m1 takes it
// first), an upgrade. It returns m0's requests in script order.
func clientScript(t *testing.T, m0, m1 *Member) []scriptRequest {
	t.Helper()
	bg := context.Background()
	lock := func(m *Member, res string, mode Mode) *Lock {
		t.Helper()
		l, err := m.Lock(bg, res, mode)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	unlock := func(l *Lock) {
		t.Helper()
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	var want []scriptRequest
	expect := func(res string, mode Mode, separate bool) {
		want = append(want, scriptRequest{lockIDFor(res), mode, separate})
	}

	expect("script/local", W, false)
	unlock(lock(m0, "script/local", W))

	expect("script/shared", R, false)
	expect("script/shared", R, true) // the join
	first, second := lock(m0, "script/shared", R), lock(m0, "script/shared", R)
	unlock(first)
	unlock(second)

	expect(waiterRes, W, false)
	expect(waiterRes, W, true) // waits for the slot
	holder := lock(m0, waiterRes, W)
	queued := lockAsync(m0, bg)
	waitQueued(t, m0, 1)
	unlock(holder)
	settle(t, "queued client", queued, nil, false)

	unlock(lock(m1, "script/remote", W)) // the token leaves m0
	expect("script/remote", W, true)     // sends a request
	unlock(lock(m0, "script/remote", W))

	expect("script/upgrade", U, false)
	expect("script/upgrade", W, true) // the upgrade
	up := lock(m0, "script/upgrade", U)
	if err := up.Upgrade(bg); err != nil {
		t.Fatal(err)
	}
	unlock(up)
	return want
}

// TestAcquireFoldedOnlyWhenGrantedAtOnce runs clientScript on a member
// whose recorder has a tap. Only the grants made the moment they were
// issued reach the tap as one entry (OpGranted carrying Issued); a request
// that joins, waits, sends or upgrades shows the tap an OpAcquire of its
// own, stamped when it was issued. The tap sees each entry once, when its
// stripe is admitted, so its order across stripes is admission order: by
// stamp it is script order. The ring shows every request's OpAcquire
// before its OpGranted, alike in node, lock and trace, one entry for each
// the tap saw or was told of, and none of the carried stamps. A grant at
// once is stamped once — its acquire, its grant and its latency (0 in
// the stripe's staged op_latency words) share the stamp — as is a join;
// a request that queued for the slot or sent a message was issued
// strictly before it was granted.
func TestAcquireFoldedOnlyWhenGrantedAtOnce(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m0, m1 := c.Member(0), c.Member(1)
	l, err := m0.Lock(context.Background(), "stats/at-once", W) // before the tap: not in the script
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	sh, lat := l.ls.sh, latency(metrics.OpLock, metrics.OutcomeLocal)
	sh.mu.Lock()
	n, sum := sh.cnt.n[0][lat], sh.cnt.sum[lat]
	sh.mu.Unlock()
	if acq := m0.Stats().Acquires; acq != 1 || n != 1 || sum != 0 {
		t.Fatalf("a grant at once: %d acquires, %d staged samples in the lowest bucket summing to %dns; want one of latency 0",
			acq, n, sum)
	}
	rec := trace.New(1024)
	var tapMu sync.Mutex
	var tapped []trace.Entry
	rec.SetTap(func(es []trace.Entry) {
		tapMu.Lock()
		tapped = append(tapped, es...)
		tapMu.Unlock()
	})
	m0.SetTelemetry(Telemetry{Trace: rec})
	want := clientScript(t, m0, m1)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	es := rec.Entries() // the read hands the tap what is still staged

	tapMu.Lock()
	defer tapMu.Unlock()
	slices.SortStableFunc(tapped, func(a, b trace.Entry) int { return cmp.Compare(a.At, b.At) })
	var got []scriptRequest
	open := make(map[proto.TraceID]bool) // requests whose OpAcquire the tap saw
	issuedAt := make(map[proto.TraceID]time.Duration)
	carried := 0 // ring entries the tap saw only as stamps of a grant
	for _, e := range tapped {
		switch e.Op {
		case trace.OpAcquire:
			open[e.Trace] = true
			issuedAt[e.Trace] = e.At
			got = append(got, scriptRequest{e.Lock, e.Mode, true})
		case trace.OpGranted:
			if (e.Issued != 0) == open[e.Trace] {
				t.Fatalf("tap saw a grant with Issued=%v after acquire=%v\n%v", e.Issued, open[e.Trace], e)
			}
			if e.Issued != 0 {
				carried++
				got = append(got, scriptRequest{e.Lock, e.Mode, false})
				if e.Issued > e.At {
					t.Fatalf("grant issued at %v, after it was granted at %v", e.Issued, e.At)
				}
				if e.Issued != e.At {
					t.Fatalf("a grant at once issued at %v and granted at %v: want one stamp", e.Issued, e.At)
				}
			}
			switch a := issuedAt[e.Trace]; e.Lock {
			case lockIDFor("script/shared"):
				if open[e.Trace] && a != e.At {
					t.Fatalf("a join issued at %v and granted at %v: want one stamp", a, e.At)
				}
			case lockIDFor(waiterRes), lockIDFor("script/remote"):
				if open[e.Trace] && a >= e.At {
					t.Fatalf("a request that queued or sent issued at %v and granted at %v", a, e.At)
				}
			}
			if e.Released != 0 {
				carried++
				if e.Released < e.At || e.ReleaseSeq == 0 {
					t.Fatalf("grant at %v released at %v under trace sequence %d", e.At, e.Released, e.ReleaseSeq)
				}
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the tap saw requests (lock, mode, separate acquire)\n%v, want\n%v", got, want)
	}

	// The ring: what the tap saw plus what its grants carried.
	if len(es) != len(tapped)+carried || rec.Len() != len(es) {
		t.Fatalf("ring shows %d entries (Len %d), want the tap's %d plus %d carried", len(es), rec.Len(), len(tapped), carried)
	}
	acquired := make(map[proto.TraceID]trace.Entry)
	grants, releases := 0, 0
	for i, e := range es {
		if e.Issued != 0 || e.Released != 0 || e.ReleaseSeq != 0 || (i > 0 && e.At < es[i-1].At) {
			t.Fatalf("ring entry %d: Issued=%v Released=%v/%d, At %v after %v", i, e.Issued, e.Released, e.ReleaseSeq, e.At, es[i-1].At)
		}
		switch e.Op {
		case trace.OpAcquire:
			acquired[e.Trace] = e
		case trace.OpGranted:
			grants++
			a, ok := acquired[e.Trace]
			if !ok || a.Node != e.Node || a.Lock != e.Lock || a.Seq >= e.Seq {
				t.Fatalf("ring entry %d: grant without its acquire before it (%v)\n%v", i, a, e)
			}
		case trace.OpRelease:
			releases++
		}
	}
	// Every hold is released once: the two readers share one, the upgrade
	// converts one.
	if grants != len(want) || releases != len(want)-2 {
		t.Fatalf("ring shows %d grants and %d releases, want %d and %d", grants, releases, len(want), len(want)-2)
	}
}

// renderRing prints entries as a reader is shown them, without At (the
// one field that differs from run to run): Seq, the operation, and every
// other field.
func renderRing(es []trace.Entry) string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "#%d %v node=%d lock=%d mode=%v kind=%v %d→%d epoch=%d trace=%v\n",
			e.Seq, e.Op, e.Node, e.Lock, e.Mode, e.Kind, e.From, e.To, e.Epoch, e.Trace)
	}
	return b.String()
}

// TestClientScriptRingGolden: what a reader of the ring sees of
// clientScript is what it saw before a pair became one staged entry —
// testdata/client_script_ring.golden was written by the parent of that
// change — Seq included, with At never decreasing and no entry carrying
// Issued, Released or ReleaseSeq.
func TestClientScriptRingGolden(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := trace.New(1024)
	c.Member(0).SetTelemetry(Telemetry{Trace: rec})
	clientScript(t, c.Member(0), c.Member(1))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	es := rec.Entries()
	for i, e := range es {
		if e.Issued != 0 || e.Released != 0 || e.ReleaseSeq != 0 || (i > 0 && e.At < es[i-1].At) {
			t.Fatalf("entry %d: Issued=%v Released=%v/%d, At %v after %v", i, e.Issued, e.Released, e.ReleaseSeq, e.At, es[i-1].At)
		}
	}
	want, err := os.ReadFile("testdata/client_script_ring.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRing(es); got != string(want) {
		t.Fatalf("ring reads\n%s\nwant\n%s", got, want)
	}
}

// sameStripe returns two resource names whose locks share a stripe.
func sameStripe(prefix string) (a, b string) {
	a = prefix + "/0"
	for i := 1; ; i++ {
		b = fmt.Sprintf("%s/%d", prefix, i)
		if lockIDFor(b)%lockShardCount == lockIDFor(a)%lockShardCount {
			return a, b
		}
	}
}

// TestReleaseFoldsOnlyIntoLastStagedGrant: Unlock writes the release into
// the hold's grant entry only when that entry is the last thing the
// lock's stripe staged and is still staged.
// Each row takes a lock on m0 (root of a two-member cluster), does
// something in between and releases it: with nothing in between the taps
// see the pair as one entry, otherwise the grant and the release reach
// them in two — and in every row the ring shows acquire, granted, release
// of the lock's first request, in that order, each with its own stamp.
func TestReleaseFoldsOnlyIntoLastStagedGrant(t *testing.T) {
	bg := context.Background()
	type env struct {
		t      *testing.T
		m0, m1 *Member
		rec    *trace.Recorder
		res    string
		mode   Mode
		after  func() // run once the row has released, before anything is read
	}
	resA, resB := sameStripe("fold")
	rows := []struct {
		name    string
		mode    Mode
		between func(e *env)
		folded  bool
		entries int // tap entries about the lock once everything is admitted
	}{
		{"nothing in between", W, func(*env) {}, true, 1},
		{"another lock of the stripe staged in between", W, func(e *env) {
			l, err := e.m0.Lock(bg, resB, W)
			if err != nil {
				e.t.Fatal(err)
			}
			e.after = func() { _ = l.Unlock() }
		}, false, 2},
		{"a shared join in between", R, func(e *env) {
			// The join's grant is staged last and takes the release; the
			// first reader's grant stays open in its own entry.
			l, err := e.m0.Lock(bg, e.res, R)
			if err != nil {
				e.t.Fatal(err)
			}
			if err := l.Unlock(); err != nil {
				e.t.Fatal(err)
			}
		}, false, 3},
		{"a ring read in between", W, func(e *env) { e.rec.Len() }, false, 2},
		{"a message event in between", W, func(e *env) {
			// m1 asks for the lock: the request's delivery at m0 admits
			// the stripe. It is granted when the row releases.
			done := make(chan error, 1)
			go func() {
				l, err := e.m1.Lock(bg, e.res, W)
				if err == nil {
					err = l.Unlock()
				}
				done <- err
			}()
			e.after = func() {
				if err := <-done; err != nil {
					e.t.Error(err)
				}
			}
			for deadline := time.Now().Add(10 * time.Second); stagedEntries(e.m0) != 0; time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					e.t.Fatal("m1's request never reached m0")
				}
			}
		}, false, 2},
		{"the ring paused and resumed in between", W, func(e *env) {
			e.rec.SetEnabled(false)
			e.rec.SetEnabled(true)
		}, false, 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c, err := NewCluster(2)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			e := &env{t: t, m0: c.Member(0), m1: c.Member(1), rec: trace.New(64), res: resA, mode: row.mode, after: func() {}}
			var mu sync.Mutex
			var tapped []trace.Entry
			e.rec.SetTap(func(es []trace.Entry) {
				mu.Lock()
				for _, en := range es {
					if en.Lock == lockIDFor(resA) && en.Kind == 0 {
						tapped = append(tapped, en)
					}
				}
				mu.Unlock()
			})
			e.m0.SetTelemetry(Telemetry{Trace: e.rec})

			l, err := e.m0.Lock(bg, e.res, row.mode)
			if err != nil {
				t.Fatal(err)
			}
			row.between(e)
			if err := l.Unlock(); err != nil {
				t.Fatal(err)
			}
			e.after()
			es := e.rec.Entries() // admits what m0 still holds

			mu.Lock()
			defer mu.Unlock()
			if len(tapped) != row.entries {
				t.Fatalf("taps saw %d entries about the lock, want %d\n%v", len(tapped), row.entries, tapped)
			}
			g := tapped[0]
			if g.Op != trace.OpGranted || g.Issued == 0 || (g.Released != 0) != row.folded {
				t.Fatalf("first entry %v (Issued %v, Released %v): want the immediate grant, release folded = %v", g, g.Issued, g.Released, row.folded)
			}
			last := tapped[len(tapped)-1]
			if released := last.Op == trace.OpRelease || last.Released != 0; !released {
				t.Fatalf("no entry tells the taps of the release: %v", tapped)
			}
			var ops []trace.Op
			for i, en := range es {
				if en.Lock != lockIDFor(resA) || en.Kind != 0 {
					continue
				}
				if en.Issued != 0 || en.Released != 0 || en.ReleaseSeq != 0 || en.At == 0 || en.Trace.IsZero() {
					t.Fatalf("ring entry %d: %v (Issued %v, Released %v/%d)", i, en, en.Issued, en.Released, en.ReleaseSeq)
				}
				ops = append(ops, en.Op)
			}
			want := []trace.Op{trace.OpAcquire, trace.OpGranted, trace.OpRelease}
			if row.mode == R {
				want = []trace.Op{trace.OpAcquire, trace.OpGranted, trace.OpAcquire, trace.OpGranted, trace.OpRelease}
			}
			if !slices.Equal(ops, want) {
				t.Fatalf("the ring shows %v of the lock, want %v", ops, want)
			}
		})
	}
}

// TestSharedAuditorFlagsGrantInsideFoldedPair: two members feed one
// auditor, each through a recorder of its own. Member 0's resident pair
// is one staged entry, a hold over an interval; a W grant forged at node 1
// with a stamp inside that interval is flagged whichever of the two
// reaches the auditor first, and one stamped after the release is not. The
// auditor's own report pulls the staged pair in (through the registry it
// shares with member 0): nothing else reads anything.
func TestSharedAuditorFlagsGrantInsideFoldedPair(t *testing.T) {
	for _, c := range []struct {
		name                string
		inside, forgedFirst bool
	}{
		{"inside, forged grant first", true, true},
		{"inside, folded pair first", true, false},
		{"after, forged grant first", false, true},
		{"after, folded pair first", false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl, err := NewCluster(2)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			reg := metrics.NewRegistry()
			aud := audit.New(audit.Config{Registry: reg, Root: 0})
			recs := [2]*trace.Recorder{trace.New(64), trace.New(64)}
			for i, rec := range recs {
				rec.SetTap(aud.Record)
				tel := Telemetry{Trace: rec, Registry: metrics.NewRegistry()}
				if i == 0 {
					tel.Registry = reg
				}
				cl.Member(i).SetTelemetry(tel)
			}

			l, err := cl.Member(0).Lock(context.Background(), "shared/forged", W)
			if err != nil {
				t.Fatal(err)
			}
			stamp := sinceEpoch()
			if err := l.Unlock(); err != nil {
				t.Fatal(err)
			}
			if !c.inside {
				stamp = sinceEpoch()
			}
			if stagedEntries(cl.Member(0)) != 1 {
				t.Fatal("the pair is not one staged entry: the test is not exercising the fold")
			}
			forged := trace.Entry{At: stamp, Op: trace.OpGranted, Node: 1, Lock: lockIDFor("shared/forged"), Mode: W}
			if !c.forgedFirst {
				if rep := aud.Snapshot(); rep.Entries != 1 || rep.Total != 0 {
					t.Fatalf("the pair alone: %d entries, %d violations, want 1 and 0", rep.Entries, rep.Total)
				}
			}
			recs[1].Record(forged)
			want := uint64(0)
			if c.inside {
				want = 1
			}
			if got := aud.Violations(); got != want { // pulls, like Snapshot
				t.Fatalf("Violations() = %d, want %d", got, want)
			}
			rep := aud.Snapshot()
			if rep.Entries != 2 || rep.Total != want || rep.ByCheck[audit.InvMutualExclusion] != want {
				t.Fatalf("%d entries, %d violations, want 2 and %d: %+v", rep.Entries, rep.Total, want, rep.Violations)
			}
		})
	}
}

// TestViolationInStagedEntryDumpsWithoutDeadlock: the auditor's
// OnViolation runs inside a tap, so when the offending entry was staged it
// runs under the stripe's mutex, and under the registry's read lock when a
// scrape pulled the entry in. With lockd's wiring — OnViolation triggers an
// incident, incidents on — the violation is flagged, the incident is
// written, its trace holding the offending grant (the ring takes a batch
// before the taps see it), and nothing deadlocks, whichever way the entry
// is admitted — although the incident's inventory and health sample take
// every stripe mutex.
func TestViolationInStagedEntryDumpsWithoutDeadlock(t *testing.T) {
	forged, filler := sameStripe("dump")
	admitters := []struct {
		name  string
		admit func(t *testing.T, w *lockdWiring, m *Member)
	}{
		{"a registry scrape", func(t *testing.T, w *lockdWiring, _ *Member) {
			if err := w.reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		}},
		{"a ring read", func(_ *testing.T, w *lockdWiring, _ *Member) { w.rec.Len() }},
		{"a full buffer", func(t *testing.T, _ *lockdWiring, m *Member) {
			// The offending pair is the stripe's first entry: stageEntries
			// more, on another lock of the stripe, push it out.
			for i := 0; i < stageEntries; i++ {
				l, err := m.Lock(context.Background(), filler, W)
				if err != nil {
					t.Error(err)
					return
				}
				_ = l.Unlock()
			}
		}},
	}
	for _, a := range admitters {
		t.Run(a.name, func(t *testing.T) {
			c, err := NewCluster(1)
			if err != nil {
				t.Fatal(err)
			}
			deadlocked := false
			defer func() {
				if !deadlocked { // Close pulls too
					c.Close()
				}
			}()
			m := c.Member(0)
			w := newLockdWiring(1 << 10)
			dir := t.TempDir()
			if err := w.bb.EnableAutoDump(dir, time.Hour); err != nil {
				t.Fatal(err)
			}
			w.attach(m)

			l, err := m.Lock(context.Background(), forged, W)
			if err != nil {
				t.Fatal(err)
			}
			// Node 9 is granted W while m holds it; recorded write-through,
			// so the auditor has it before m's pair is admitted.
			w.rec.Record(trace.Entry{At: sinceEpoch(), Op: trace.OpGranted, Node: 9, Lock: lockIDFor(forged), Mode: W})
			if err := l.Unlock(); err != nil {
				t.Fatal(err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Fatalf("an incident before the pair was admitted: %v", entries)
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				a.admit(t, w, m)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				deadlocked = true
				t.Fatal("admitting the offending entry deadlocked")
			}
			if rep := w.aud.Snapshot(); rep.ByCheck[audit.InvMutualExclusion] != 1 {
				t.Fatalf("report: %+v, want one mutual_exclusion violation", rep)
			}
			w.bb.Close() // waits for the incident
			list, err := w.bb.List()
			if err != nil || len(list) != 1 || !strings.HasSuffix(list[0].Name, introspect.ReasonAuditViolation) {
				t.Fatalf("incidents: %+v, %v; want one audit_violation", list, err)
			}
			es := readIncidentRing(t, filepath.Join(dir, list[0].Name))
			if !slices.ContainsFunc(es, func(e trace.Entry) bool {
				return e.Op == trace.OpGranted && e.Node == m.id && e.Lock == lockIDFor(forged)
			}) {
				t.Fatalf("the incident lacks the offending grant: %+v", es)
			}
			if st := w.bb.Stats(); st.Written[introspect.ReasonAuditViolation] != 1 || st.LastErr != nil {
				t.Fatalf("incident stats: %+v", st)
			}
		})
	}
}

// TestEveryConsumerPullsForItself: after N resident pairs with nothing
// read, the first question asked — of the auditor, of its counter in the
// registry or of the ring — is answered for all N, and empties the
// stripes.
func TestEveryConsumerPullsForItself(t *testing.T) {
	const pairs = 100 // more than one buffer's worth on no stripe: 64 keys
	audited := func(w *lockdWiring) *metrics.Counter {
		return w.reg.Counter(metrics.MetricAuditEntries, "Trace entries consumed by the protocol auditor.", nil)
	}
	for _, q := range []struct {
		name string
		ask  func(w *lockdWiring) int
	}{
		{"Auditor.Snapshot", func(w *lockdWiring) int { return int(w.aud.Snapshot().Entries) }},
		{metrics.MetricAuditEntries, func(w *lockdWiring) int { return int(audited(w).Value()) }},
		{"Recorder.Len", func(w *lockdWiring) int { return w.rec.Len() / 3 }},
	} {
		t.Run(q.name, func(t *testing.T) {
			c, err := NewCluster(1)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			m := c.Member(0)
			w := newLockdWiring(1 << 10)
			w.attach(m)
			residentPairs(t, m, 1, 64, pairs)
			if staged := stagedEntries(m); staged != pairs {
				t.Fatalf("%d entries staged, want %d: something was admitted before anyone asked", staged, pairs)
			}
			if got := q.ask(w); got != pairs {
				t.Fatalf("answered %d, want %d", got, pairs)
			}
			if staged := stagedEntries(m); staged != 0 {
				t.Fatalf("%d entries still staged after the read", staged)
			}
		})
	}
}

// TestFlightRecorderSeesGrantsWhileTracePaused: pausing the trace ring
// (/debug/trace?enable=off) freezes what its readers see and nothing else.
// Under lockd's wiring an incident, which copies the live ring, holds
// every pair made while the ring is paused; the ring's readers show
// exactly the entries from before the pause; after the resumption both
// show everything.
func TestFlightRecorderSeesGrantsWhileTracePaused(t *testing.T) {
	const before, during = 20, 100
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	w := newLockdWiring(1 << 12)
	if err := w.bb.EnableAutoDump(t.TempDir(), time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	w.attach(m)
	grants := func() int {
		// As /debug/incidents does: pull, then trigger. Of the reasons, one
		// that writes no profiles.
		w.rec.Pull()
		path, err := w.bb.TriggerDump(introspect.ReasonRecoveryRound)
		if err != nil || path == "" {
			t.Fatalf("TriggerDump = %q, %v", path, err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, err := os.Stat(path); err == nil {
				break // renamed into place once complete
			}
			if time.Now().After(deadline) {
				t.Fatalf("incident %s never completed", path)
			}
		}
		n := 0
		for _, e := range readIncidentRing(t, path) {
			if e.Op == trace.OpGranted {
				n++
			}
		}
		return n
	}

	residentPairs(t, m, 1, 64, before)
	w.rec.SetEnabled(false)
	frozen := w.rec.Entries()
	if len(frozen) != 3*before {
		t.Fatalf("the pause froze %d entries, want %d", len(frozen), 3*before)
	}
	residentPairs(t, m, 1, 64, during)
	if got := grants(); got != before+during {
		t.Fatalf("an incident holds %d grants with the trace ring paused, want %d", got, before+during)
	}
	if es := w.rec.Entries(); !slices.Equal(es, frozen) || w.rec.Len() != len(frozen) || w.rec.Dropped() != 0 {
		t.Fatalf("paused ring's readers see %d entries (Len %d, Dropped %d), want the %d from before the pause", len(es), w.rec.Len(), w.rec.Dropped(), len(frozen))
	}

	w.rec.SetEnabled(true)
	if got := w.rec.Len(); got != 3*(before+during) {
		t.Fatalf("resumed ring has %d entries, want %d", got, 3*(before+during))
	}
	checkResidentRing(t, w.rec.Entries(), 3*(before+during))
	if got := grants(); got != before+during {
		t.Fatalf("an incident holds %d grants after the resumption, want %d", got, before+during)
	}
}

// TestNodeEventsInTheRing: the node events are trace entries in the one
// ring — an eviction sweep with its count, a wait lost to RecoveryTimeout
// with its operation's trace — and the lock_lost incident the lost wait
// writes holds its entry.
func TestNodeEventsInTheRing(t *testing.T) {
	bg := context.Background()
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m0, m1 := c.Member(0), c.Member(1)
	w := newLockdWiring(1 << 10)
	dir := t.TempDir()
	if err := w.bb.EnableAutoDump(dir, time.Hour); err != nil {
		t.Fatal(err)
	}
	w.attach(m0)
	for _, res := range []string{"a", "b", "c"} {
		l, err := m0.Lock(bg, res, W)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	evicted := m0.EvictIdle()
	if evicted == 0 {
		t.Fatal("nothing evicted: the test is not exercising the sweep")
	}

	remote, err := m1.Lock(bg, "lost", W)
	if err != nil {
		t.Fatal(err)
	}
	m0.recoveryTimeout = 10 * time.Millisecond // before the client parks
	if _, err := m0.Lock(bg, "lost", W); !errors.Is(err, ErrLockLost) {
		t.Fatalf("Lock behind a remote hold past RecoveryTimeout = %v, want ErrLockLost", err)
	}
	if err := remote.Unlock(); err != nil {
		t.Fatal(err)
	}
	w.bb.Close() // waits for the incident

	swept := 0
	var lost []trace.Entry
	for _, e := range w.rec.Entries() {
		switch e.Op {
		case trace.OpEvict:
			swept += int(e.Epoch)
		case trace.OpLockLost:
			lost = append(lost, e)
		}
	}
	if swept != evicted {
		t.Fatalf("evict_sweep entries count %d evictions, EvictIdle returned %d", swept, evicted)
	}
	if len(lost) != 1 || lost[0].Lock != lockIDFor("lost") || lost[0].Mode != W || lost[0].Trace.Node != m0.id {
		t.Fatalf("lock_lost entries = %+v, want one for the wait on %q", lost, "lost")
	}
	list, err := w.bb.List()
	if err != nil || len(list) != 1 || !strings.HasSuffix(list[0].Name, introspect.ReasonLockLost) {
		t.Fatalf("incidents = %+v, %v; want one lock_lost", list, err)
	}
	if !slices.ContainsFunc(readIncidentRing(t, filepath.Join(dir, list[0].Name)), func(e trace.Entry) bool {
		return e.Op == trace.OpLockLost && e.Seq == lost[0].Seq && e.Trace == lost[0].Trace
	}) {
		t.Fatalf("the lock_lost incident lacks %+v", lost[0])
	}
}
