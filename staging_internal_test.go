package hierlock

import (
	"context"
	"fmt"
	"io"
	"log/slog"
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
// entries back per stripe, and nobody reading the ring can tell. After
// resident pairs over 128 locks from four goroutines every entry is
// there, in time order, each lock's acquire → granted → release cycles
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
	if rep := w.aud.Snapshot(); rep.Entries != 3*total || rep.Total != 0 {
		t.Fatalf("auditor saw %d entries and %d violations, want %d and 0", rep.Entries, rep.Total, 3*total)
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
	if got, want := w.aud.Snapshot().Entries, uint64(3*(total+goroutines*50)); got != want {
		t.Fatalf("auditor saw %d entries across the pause, want %d", got, want)
	}

	// What is staged when the member closes reaches the ring with no
	// reader's help.
	residentPairs(t, m, goroutines, keysPer, 5)
	if staged := stagedEntries(m); staged != 3*goroutines*5 {
		t.Fatalf("%d entries staged before Close, want %d", staged, 3*goroutines*5)
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
// cycle acquire, granted (same trace), release.
func checkResidentRing(t *testing.T, es []trace.Entry, want int) {
	t.Helper()
	if len(es) != want {
		t.Fatalf("Entries() returned %d entries, want %d", len(es), want)
	}
	type cycle struct {
		next trace.Op
		tr   proto.TraceID
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
		switch e.Op {
		case trace.OpAcquire:
			c.next, c.tr = trace.OpGranted, e.Trace
		case trace.OpGranted:
			if e.Trace != c.tr {
				t.Fatalf("entry %d: granted under trace %v, acquired under %v", i, e.Trace, c.tr)
			}
			c.next = trace.OpRelease
		case trace.OpRelease:
			c.next = trace.OpAcquire
		}
	}
}

// TestStagedRingKeepsCapacity: staging does not let a small ring grow,
// and what it evicts is counted.
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
	if len(es) != 4 {
		t.Fatalf("a capacity-4 ring returned %d entries", len(es))
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
