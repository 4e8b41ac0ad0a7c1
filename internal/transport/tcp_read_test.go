package transport

// Read-side tests: delayed cumulative acks (few ack writes, a bounded
// unacknowledged window, exactly-once across a reset inside the window)
// and delivery on the reading goroutine (serial Handler, per-link FIFO,
// the overflow queue and its bound, Close waiting for the Handler).

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierlock/internal/proto"
)

// startTCP starts one endpoint on a fresh loopback port.
func startTCP(t *testing.T, cfg TCPConfig, h Handler) *TCPTransport {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	tr, err := NewTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	if err := tr.Start(h); err != nil {
		t.Fatal(err)
	}
	return tr
}

// sendTo sends one request frame, failing the test on any error.
func sendTo(t *testing.T, tr *TCPTransport, to proto.NodeID, ts int) {
	t.Helper()
	if err := tr.Send(&proto.Message{From: tr.cfg.Self, To: to, Kind: proto.KindRequest, TS: proto.Timestamp(ts)}); err != nil {
		t.Fatal(err)
	}
}

// ackLog is a listener whose connections record the sequence number of
// every link ack written on them, one per Write (WriteLinkAck writes a
// frame in one call).
type ackLog struct {
	net.Listener
	mu   sync.Mutex
	acks []uint64
}

func (l *ackLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return ackConn{c, l}, err
}

func (l *ackLog) read() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.acks)
}

type ackConn struct {
	net.Conn
	log *ackLog
}

func (c ackConn) Write(p []byte) (int, error) {
	if typ, seq, _, err := proto.ReadLinkFrame(bytes.NewReader(p)); err == nil && typ == proto.LinkAck {
		c.log.mu.Lock()
		c.log.acks = append(c.log.acks, seq)
		c.log.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestTCPDelayedAcksPingPong: frames sent one at a time, each after the
// previous one was delivered, are acknowledged cumulatively: the receiver
// (which sends nothing else, so its writes are its acks) writes far fewer
// acks than it got frames, never lets more than ackEvery frames go
// unacknowledged at an ack it writes, and the sender's buffer drains to
// zero. (How late the sender prunes behind an ack is scheduling, so its
// high water is not checked.)
func TestTCPDelayedAcksPingPong(t *testing.T) {
	const n = 1000
	delivered := make(chan struct{}, 1)
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tb.Close() })
	log := &ackLog{Listener: tb.ln}
	tb.ln = log
	if err := tb.Start(func(*proto.Message) { delivered <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	ta := startTCP(t, TCPConfig{Self: 0, Peers: map[proto.NodeID]string{1: tb.Addr()}},
		func(*proto.Message) {})
	for i := 1; i <= n; i++ {
		sendTo(t, ta, 1, i)
		select {
		case <-delivered:
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d not delivered", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ta.QueueStats()[1].Len != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sender still holds %d unacknowledged frames", ta.QueueStats()[1].Len)
		}
		time.Sleep(time.Millisecond)
	}
	acks := log.read()
	t.Logf("%d frames, %d ack writes, sender high water %d", n, len(acks), ta.QueueStats()[1].HighWater)
	if len(acks) == 0 || len(acks) > n/2 || uint64(len(acks)) != tb.IOStats().WriteCalls {
		t.Fatalf("%d ack writes (%d writes in all) for %d frames: want far fewer acks than frames, and nothing else written",
			len(acks), tb.IOStats().WriteCalls, n)
	}
	// The first ack answers the connection's first frame; every later one
	// covers at most ackEvery more, and the last covers the last frame.
	for i := 1; i < len(acks); i++ {
		if d := acks[i] - acks[i-1]; acks[i] < acks[i-1] || d > ackEvery {
			t.Fatalf("ack %d is %d after %d: want an advance of 0..%d", i, acks[i], acks[i-1], ackEvery)
		}
	}
	if got := acks[len(acks)-1] - acks[0]; got != n-1 {
		t.Fatalf("acks advance by %d over the run, want %d", got, n-1)
	}
	if ls := ta.LinkStats(); ls.Retransmits != 0 {
		t.Fatalf("retransmits on a healthy link: %+v", ls)
	}
}

// TestTCPAckWindowBounded: a receiver never has more than ackEvery
// delivered frames unacknowledged. The sender is a raw connection, so the
// ack stream itself is what is checked: in a 10 000-frame burst every ack
// advances by at most ackEvery, none goes backwards, and the last covers
// the burst — whatever the timer adds only narrows the gaps.
func TestTCPAckWindowBounded(t *testing.T) {
	const n = 10000
	var got atomic.Int64
	tb := startTCP(t, TCPConfig{Self: 1}, func(*proto.Message) { got.Add(1) })
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeErr := make(chan error, 1)
	go func() {
		var buf []byte
		for seq := uint64(1); seq <= n; seq++ {
			buf = proto.AppendLinkData(buf, seq, &proto.Message{From: 5, To: 1, Kind: proto.KindRequest})
			if seq%256 == 0 || seq == n {
				if _, err := conn.Write(buf); err != nil {
					writeErr <- err
					return
				}
				buf = buf[:0]
			}
		}
		writeErr <- nil
	}()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var last uint64
	acks := 0
	for last < n {
		typ, seq, _, err := proto.ReadLinkFrame(conn)
		if err != nil {
			t.Fatalf("after ack %d: %v", last, err)
		}
		if typ != proto.LinkAck {
			t.Fatalf("frame type %d from a receiver", typ)
		}
		if seq < last || seq-last > ackEvery {
			t.Fatalf("ack %d after ack %d: want an advance of 0..%d", seq, last, ackEvery)
		}
		last = seq
		acks++
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	if got.Load() != n {
		t.Fatalf("delivered %d of %d", got.Load(), n)
	}
	t.Logf("%d frames, %d acks", n, acks)
	if acks > n/8 {
		t.Fatalf("%d acks for a %d-frame burst", acks, n)
	}
}

// TestTCPReliableResetInsideAckWindow: the TestTCPReliableConnReset
// harness with the reset placed where delayed acks make it costly — the
// Handler itself severs the connection, so the frame it is handling (and
// whatever else the last millisecond delivered) is never acknowledged,
// comes back on the next connection and must be suppressed there.
func TestTCPReliableResetInsideAckWindow(t *testing.T) {
	const n = 200
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	got := make(chan proto.Timestamp, 2*n)
	count := 0 // Handler-only state: serial by contract
	if err := tb.Start(func(m *proto.Message) {
		got <- m.TS
		if count++; count == n/4 || count == n/2 {
			tb.mu.Lock()
			for c := range tb.conns {
				_ = c.Close()
			}
			tb.mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	ta := startTCP(t, TCPConfig{Self: 0, RedialBackoff: 10 * time.Millisecond,
		Peers: map[proto.NodeID]string{1: tb.Addr()}}, func(*proto.Message) {})
	for i := 1; i <= n; i++ {
		sendTo(t, ta, 1, i)
		time.Sleep(100 * time.Microsecond)
	}
	for want := proto.Timestamp(1); want <= n; want++ {
		select {
		case ts := <-got:
			if ts != want {
				t.Fatalf("delivery %d has TS %d: the link lost, duplicated or reordered a frame", want, ts)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("stalled before delivery %d", want)
		}
	}
	select {
	case ts := <-got:
		t.Fatalf("frame %d delivered twice", ts)
	case <-time.After(50 * time.Millisecond):
	}
	if ls := tb.LinkStats(); ls.DupsSuppressed < 2 {
		t.Fatalf("DupsSuppressed = %d: each severed frame should have come back once", ls.DupsSuppressed)
	}
	if ls := ta.LinkStats(); ls.Retransmits < 2 || ls.Redials < 3 {
		t.Fatalf("sender link stats %+v: want a redial and a retransmission per reset", ls)
	}
}

// TestTCPSerialDeliveryManySenders: with every inbound link's reader able
// to run the Handler, it is still never entered twice at once, each
// sender's frames arrive in send order, and none is lost.
func TestTCPSerialDeliveryManySenders(t *testing.T) {
	for _, tc := range []struct {
		name    string
		senders int
	}{{"two-reliable", 2}, {"three-reliable", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			const perSender = 10000
			var inside, overlaps atomic.Int32
			next := make([]proto.Timestamp, tc.senders) // Handler-only state: serial by contract
			var misordered atomic.Int32
			var total atomic.Int64
			done := make(chan struct{})
			tb := startTCP(t, TCPConfig{Self: 100}, func(m *proto.Message) {
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				if m.TS != next[m.From] {
					misordered.Add(1)
				}
				next[m.From] = m.TS + 1
				inside.Add(-1)
				if total.Add(1) == int64(tc.senders*perSender) {
					close(done)
				}
			})
			var wg sync.WaitGroup
			for s := 0; s < tc.senders; s++ {
				ts := startTCP(t, TCPConfig{Self: proto.NodeID(s),
					Peers: map[proto.NodeID]string{100: tb.Addr()}}, func(*proto.Message) {})
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						if err := ts.Send(&proto.Message{From: ts.cfg.Self, To: 100,
							Kind: proto.KindRequest, TS: proto.Timestamp(i)}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("delivered %d of %d", total.Load(), tc.senders*perSender)
			}
			if overlaps.Load() != 0 || misordered.Load() != 0 {
				t.Fatalf("%d overlapping Handler calls, %d frames out of their sender's order",
					overlaps.Load(), misordered.Load())
			}
			t.Logf("overflow queue high water %d", tb.InboxStats().HighWater)
		})
	}
}

// TestTCPInboxOverflowBounded: while one reader is held inside the
// Handler, another link's frames queue behind it up to QueueLimit; the
// frame that does not fit is dropped unacknowledged — InboxStats counts
// it — and reaches the Handler by retransmission once there is room.
// While there is none the sender backs off: a connection that is closed
// on it before it acknowledged anything counts as a failed dial, so 200 ms
// of a stuck Handler cost a handful of redials, not one per round trip.
func TestTCPInboxOverflowBounded(t *testing.T) {
	const limit = 4
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // a failure below must not leave Close waiting for the Handler
	entered := make(chan struct{}, 1)
	var mu sync.Mutex
	var fromB []proto.Timestamp
	all := make(chan struct{})
	tc := startTCP(t, TCPConfig{Self: 2, QueueLimit: limit}, func(m *proto.Message) {
		if m.From == 0 {
			entered <- struct{}{}
			<-gate
			return
		}
		mu.Lock()
		fromB = append(fromB, m.TS)
		if len(fromB) == limit+1 {
			close(all)
		}
		mu.Unlock()
	})
	peers := map[proto.NodeID]string{2: tc.Addr()}
	ta := startTCP(t, TCPConfig{Self: 0, Peers: peers}, func(*proto.Message) {})
	tb := startTCP(t, TCPConfig{Self: 1, Peers: peers, RedialBackoff: 5 * time.Millisecond},
		func(*proto.Message) {})

	sendTo(t, ta, 2, 0)
	select {
	case <-entered: // A's reader now sits in the Handler
	case <-time.After(5 * time.Second):
		t.Fatal("first frame not delivered")
	}
	for i := 1; i <= limit+1; i++ {
		sendTo(t, tb, 2, i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := tc.InboxStats()
		if st.Len == limit && st.HighWater == limit && st.Limit == limit && st.FullDrops >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inbox never reported a full queue and a drop: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	select {
	case <-all:
		t.Fatal("frames delivered past a held Handler")
	default:
	}
	// The first connection and the one that got the duplicates re-acked
	// redial at once; from then on every connection dies unacknowledged
	// and the waits are at least 3/4 of 5, 10, 20, 40, 80, 160 ms: six fit
	// in 200 ms with room to spare.
	if ls := tb.LinkStats(); ls.Redials > 10 {
		t.Fatalf("%d redials in 200 ms against a full inbox: the sender is not backing off", ls.Redials)
	}
	openGate()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("the dropped frame never came back: got %v", fromB)
	}
	// Nothing more may follow: the retransmissions of frames 1..limit
	// that accompanied the dropped one were duplicates.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for i, ts := range fromB {
		if ts != proto.Timestamp(i+1) {
			t.Fatalf("B's frames arrived as %v", fromB)
		}
	}
	if st := tc.InboxStats(); st.Len != 0 || st.HighWater != limit {
		t.Fatalf("inbox after the drain: %+v", st)
	}
	if ls := tb.LinkStats(); ls.Retransmits == 0 {
		t.Fatalf("the dropped frame arrived without a retransmission: %+v", ls)
	}
}

// TestTCPCloseWaitsForHandler: Close during a delivery returns only after
// the Handler has, and the transport then refuses to send.
func TestTCPCloseWaitsForHandler(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var returned atomic.Bool
	tb := startTCP(t, TCPConfig{Self: 1}, func(*proto.Message) {
		close(entered)
		<-gate
		returned.Store(true)
	})
	ta := startTCP(t, TCPConfig{Self: 0, Peers: map[proto.NodeID]string{1: tb.Addr()}}, func(*proto.Message) {})
	sendTo(t, ta, 1, 1)
	<-entered
	closed := make(chan struct{})
	go func() {
		_ = tb.Close()
		if !returned.Load() {
			t.Error("Close returned while the Handler was still running")
		}
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned during a held delivery")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the Handler did")
	}
	if err := tb.Send(&proto.Message{To: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

// TestTCPNoDrainGoroutine: a started TCP endpoint that has delivered a
// frame runs no mailbox drainer; the in-process transport still does.
func TestTCPNoDrainGoroutine(t *testing.T) {
	drainers := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*mailbox).drain")
	}
	// Earlier tests' drainers are closed but may not have unwound yet.
	for deadline := time.Now().Add(5 * time.Second); drainers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("an earlier test leaked a mailbox drainer")
		}
	}
	delivered := make(chan struct{})
	tb := startTCP(t, TCPConfig{Self: 1}, func(*proto.Message) { close(delivered) })
	ta := startTCP(t, TCPConfig{Self: 0, Peers: map[proto.NodeID]string{1: tb.Addr()}}, func(*proto.Message) {})
	sendTo(t, ta, 1, 1)
	<-delivered
	if n := drainers(); n != 0 {
		t.Fatalf("%d mailbox.drain goroutines with two TCP endpoints up", n)
	}
	nw := NewChanNetwork()
	defer nw.Close()
	if err := nw.Node(0).Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for drainers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the in-process transport started no drainer: the goroutine dump is not what this test thinks")
		}
		time.Sleep(time.Millisecond)
	}
}
