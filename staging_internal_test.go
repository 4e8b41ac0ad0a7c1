package hierlock

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"slices"
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
// registry, the trace ring tapped by the auditor and the flight recorder,
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
	w.rec.AddTap(w.bb.Tap)
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

// TestStagedRingExactAtReadAndOrdered: the member holds client-operation
// entries back per stripe and records a grant made at once as one entry,
// and nobody reading the ring can tell. After resident pairs over 128
// locks from four goroutines the taps have seen two entries per pair
// (granted, release) and the stripes staged as many, while the ring shows
// three, in time order, each lock's acquire → granted → release cycles
// intact; a pause keeps out what came after it and nothing before; Close
// admits what no reader pulled.
func TestStagedRingExactAtReadAndOrdered(t *testing.T) {
	const goroutines, keysPer, pairs = 4, 32, 500
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	w := newLockdWiring(1 << 16)
	w.attach(m)

	residentPairs(t, m, goroutines, keysPer, pairs)
	const total = goroutines * pairs
	if staged := stagedEntries(m); staged == 0 {
		t.Fatal("nothing staged after the run: the test is not exercising staging")
	}
	if got := w.rec.Len(); got != 3*total {
		t.Fatalf("ring has %d entries, want %d (three per pair)", got, 3*total)
	}
	if staged := stagedEntries(m); staged != 0 {
		t.Fatalf("%d entries still staged after a read", staged)
	}
	checkResidentRing(t, w.rec.Entries(), 3*total)
	if rep := w.aud.Snapshot(); rep.Entries != 2*total || rep.Total != 0 {
		t.Fatalf("auditor saw %d entries and %d violations, want %d (two per pair) and 0", rep.Entries, rep.Total, 2*total)
	}
	if got, want := w.reg.Counter(metrics.MetricAuditEntries, "Trace entries consumed by the protocol auditor.", nil).Value(), uint64(2*total); got != want {
		t.Fatalf("%s = %d, want %d", metrics.MetricAuditEntries, got, want)
	}
	if got := w.bb.Stats().Events; got != total {
		t.Fatalf("flight recorder has %d events, want one grant per pair (%d)", got, total)
	}

	// Paused: the taps keep seeing entries, the ring takes none — not
	// later either, when the stripes next admit.
	w.rec.SetEnabled(false)
	residentPairs(t, m, goroutines, keysPer, 50)
	w.rec.SetEnabled(true)
	if got := w.rec.Len(); got != 3*total {
		t.Fatalf("ring grew to %d entries while paused, want %d", got, 3*total)
	}
	if got, want := w.aud.Snapshot().Entries, uint64(2*(total+goroutines*50)); got != want {
		t.Fatalf("auditor saw %d entries across the pause, want %d", got, want)
	}

	// What is staged when the member closes reaches the ring with no
	// reader's help.
	residentPairs(t, m, goroutines, keysPer, 5)
	if staged := stagedEntries(m); staged != 2*goroutines*5 {
		t.Fatalf("%d entries staged before Close, want %d (two per pair)", staged, 2*goroutines*5)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if staged := stagedEntries(m); staged != 0 {
		t.Fatalf("%d entries still staged after Close", staged)
	}
	if got, want := w.rec.Len(), 3*(total+goroutines*5); got != want {
		t.Fatalf("ring has %d entries after Close, want %d", got, want)
	}
}

// checkResidentRing checks a ring that holds nothing but resident
// Lock/Unlock pairs: want entries, At never decreasing, and per lock the
// cycle acquire, granted, release with Seq increasing, the acquire and
// its grant alike in node, lock, mode and trace, and no entry carrying
// the stamp the ring derived the acquire from.
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
		if e.Seq <= c.seq || e.Issued != 0 {
			t.Fatalf("entry %d: Seq %d after %d on its lock, Issued %v\n%v", i, e.Seq, c.seq, e.Issued, e)
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

// TestStagedRingKeepsCapacity: neither staging nor the acquire entries
// the ring derives let a small ring grow, and what it evicts is counted:
// capacity, Dropped and Seq are all in entries as read, three per pair.
func TestStagedRingKeepsCapacity(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	w := newLockdWiring(4)
	w.attach(m)
	residentPairs(t, m, 4, 32, 200)
	es := w.rec.Entries()
	if len(es) != 4 || w.rec.Len() != 4 {
		t.Fatalf("a capacity-4 ring returned %d entries, Len() = %d", len(es), w.rec.Len())
	}
	if got := w.aud.Snapshot().Entries; got != 2*4*200 {
		t.Fatalf("auditor saw %d entries, want two per pair (%d)", got, 2*4*200)
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

// TestResidentPathSharesNoMemberMutex: with statMu held by the test, a
// thousand resident pairs under lockd's default wiring complete. (The
// ring, auditor and flight-recorder mutexes cannot be held from outside;
// that the path takes none of them per entry is DESIGN.md's claim and
// BenchmarkMemberDefaultTelemetry's -cpu 2 figure.)
func TestResidentPathSharesNoMemberMutex(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	newLockdWiring(4096).attach(m)

	m.statMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		residentPairs(t, m, 1, 64, 1000)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Error("resident Lock/Unlock pairs block on statMu")
	}
	m.statMu.Unlock()
	<-done
	if got := m.Stats().Acquires; got != 1000 {
		t.Fatalf("Stats().Acquires = %d, want 1000", got)
	}
}

// TestAcquireFoldedOnlyWhenGrantedAtOnce runs one of each kind of request
// on a member whose recorder has a tap: a local grant, a shared join, a
// request that waits for the admission slot, one whose token is remote,
// an upgrade. Only the grants made the moment they were issued reach the
// tap as one entry (OpGranted carrying Issued); a request that joins,
// waits, sends or upgrades shows the tap its OpAcquire when it is issued.
// The ring shows every request's OpAcquire before its OpGranted, alike in
// node, lock and trace, and no Issued.
func TestAcquireFoldedOnlyWhenGrantedAtOnce(t *testing.T) {
	bg := context.Background()
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m0, m1 := c.Member(0), c.Member(1)
	rec := trace.New(1024)
	var tapMu sync.Mutex
	var tapped []trace.Entry
	rec.SetTap(func(e trace.Entry) {
		tapMu.Lock()
		tapped = append(tapped, e)
		tapMu.Unlock()
	})
	m0.SetTelemetry(Telemetry{Trace: rec})

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
	// want: per requested (resource, mode) in script order, whether the tap
	// is to see a separate OpAcquire.
	type request struct {
		lock     proto.LockID
		mode     Mode
		separate bool
	}
	var want []request
	expect := func(res string, mode Mode, separate bool) {
		want = append(want, request{lockIDFor(res), mode, separate})
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
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	// The tap: client-operation entries of m0 in the order they happened.
	tapMu.Lock()
	defer tapMu.Unlock()
	var got []request
	open := make(map[proto.TraceID]bool) // requests whose OpAcquire the tap saw
	folded := 0
	for _, e := range tapped {
		switch e.Op {
		case trace.OpAcquire:
			open[e.Trace] = true
			got = append(got, request{e.Lock, e.Mode, true})
		case trace.OpGranted:
			if (e.Issued != 0) == open[e.Trace] {
				t.Fatalf("tap saw a grant with Issued=%v after acquire=%v\n%v", e.Issued, open[e.Trace], e)
			}
			if e.Issued != 0 {
				folded++
				got = append(got, request{e.Lock, e.Mode, false})
				if e.Issued > e.At {
					t.Fatalf("grant issued at %v, after it was granted at %v", e.Issued, e.At)
				}
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the tap saw requests (lock, mode, separate acquire)\n%v, want\n%v", got, want)
	}

	// The ring: what the tap saw plus one acquire per folded grant.
	es := rec.Entries()
	if len(es) != len(tapped)+folded || rec.Len() != len(es) {
		t.Fatalf("ring shows %d entries (Len %d), want the tap's %d plus %d derived acquires", len(es), rec.Len(), len(tapped), folded)
	}
	acquired := make(map[proto.TraceID]trace.Entry)
	grants := 0
	for i, e := range es {
		if e.Issued != 0 || (i > 0 && e.At < es[i-1].At) {
			t.Fatalf("ring entry %d: Issued=%v, At %v after %v", i, e.Issued, e.At, es[i-1].At)
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
		}
	}
	if grants != len(want) {
		t.Fatalf("ring shows %d grants, want %d", grants, len(want))
	}
}
