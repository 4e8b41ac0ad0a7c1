package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hierlock/internal/proto"
	"hierlock/internal/recovery"
)

// deadAddr returns a loopback address with nothing listening on it
// (connections are refused immediately).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestTCPCloseFastWithUnreachablePeer: Close must return promptly even
// while a peer writer sits in a long redial backoff.
func TestTCPCloseFastWithUnreachablePeer(t *testing.T) {
	ta, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers:            map[proto.NodeID]string{1: deadAddr(t)},
		RedialBackoff:    5 * time.Second,
		RedialBackoffMax: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest}); err != nil {
		t.Fatal(err)
	}
	// Let the writer fail its first dial and enter the 5s backoff.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with unreachable peer (want < 1s)", d)
	}
}

// TestTCPQueueFull: a bounded per-peer queue rejects sends at its limit
// with ErrQueueFull and records the pressure in QueueStats.
func TestTCPQueueFull(t *testing.T) {
	ta, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers:         map[proto.NodeID]string{1: deadAddr(t)},
		RedialBackoff: time.Hour, // keep everything queued
		QueueLimit:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest}); err != nil {
			t.Fatalf("send %d within limit: %v", i, err)
		}
	}
	err = ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit send: got %v, want ErrQueueFull", err)
	}
	qs := ta.QueueStats()[1]
	if qs.Limit != 2 || qs.FullDrops != 1 || qs.HighWater != 2 {
		t.Fatalf("queue stats: %+v", qs)
	}
}

// TestTCPHealthTransitions: consecutive connection failures degrade then
// down a peer; a successful connection brings it back up, each change
// reported through the callback.
func TestTCPHealthTransitions(t *testing.T) {
	addr := deadAddr(t)
	states := make(chan PeerState, 16)
	ta, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers:         map[proto.NodeID]string{1: addr},
		RedialBackoff: 10 * time.Millisecond,
		DownAfter:     2,
		OnPeerState: func(peer proto.NodeID, s PeerState) {
			if peer == 1 {
				states <- s
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest}); err != nil {
		t.Fatal(err)
	}
	expect := func(want PeerState) {
		t.Helper()
		select {
		case s := <-states:
			if s != want {
				t.Fatalf("state = %v, want %v", s, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for state %v", want)
		}
	}
	expect(PeerDegraded)
	expect(PeerDown)
	if got := ta.Health()[1]; got != PeerDown {
		t.Fatalf("Health() = %v, want down", got)
	}
	// Resurrect the peer at the same address; the writer's retry loop
	// should connect and report Up.
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	expect(PeerUp)
	if got := ta.Health()[1]; got != PeerUp {
		t.Fatalf("Health() = %v, want up", got)
	}
}

// TestTCPReliableConnReset: a connection reset mid-stream must not lose
// or duplicate any frame — the receiver sees
// exactly 1..n in order (exactly-once per transport incarnation).
func TestTCPReliableConnReset(t *testing.T) {
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	const n = 200
	got := make(chan proto.Timestamp, n+64)
	received := make(chan struct{}, n+64)
	if err := tb.Start(func(m *proto.Message) {
		got <- m.TS
		received <- struct{}{}
	}); err != nil {
		t.Fatal(err)
	}
	ta, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers:         map[proto.NodeID]string{1: tb.Addr()},
		RedialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}

	// Sender paces messages out while the test severs B's inbound
	// connections twice mid-stream.
	go func() {
		for i := 1; i <= n; i++ {
			for {
				err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest, TS: proto.Timestamp(i)})
				if err == nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	sever := func() {
		tb.mu.Lock()
		for c := range tb.conns {
			_ = c.Close()
		}
		tb.mu.Unlock()
	}
	delivered := 0
	for delivered < n {
		select {
		case <-received:
			delivered++
			if delivered == n/4 || delivered == n/2 {
				sever()
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("stalled at %d/%d deliveries", delivered, n)
		}
	}
	close(got)
	i := proto.Timestamp(0)
	for ts := range got {
		i++
		if ts != i {
			t.Fatalf("delivery %d has TS %d: reliable link lost or duplicated a frame", i, ts)
		}
	}
	if i != n {
		t.Fatalf("delivered %d of %d", i, n)
	}
	ls := ta.LinkStats()
	if ls.Redials < 2 {
		t.Fatalf("expected redials after severed connections, got %+v", ls)
	}
}

// TestTCPReliablePeerRestart: the sender's writer reconnects to a
// receiver restarted on the same port. Across that restart the link
// degrades to at-least-once (the receiver's dedup state is in-memory: a
// frame delivered but not yet covered by the delayed ack is replayed to
// the new incarnation), but must never lose a frame and each incarnation
// must see an increasing sequence. TestTCPSenderRestartDelivers is the
// other direction.
func TestTCPReliablePeerRestart(t *testing.T) {
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := tb.Addr()
	var mu sync.Mutex
	seen := make(map[proto.Timestamp]int)
	var gen2 []proto.Timestamp
	firstN := make(chan struct{})
	var firstOnce sync.Once
	if err := tb.Start(func(m *proto.Message) {
		mu.Lock()
		seen[m.TS]++
		if len(seen) >= 20 {
			firstOnce.Do(func() { close(firstN) })
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	ta, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers:         map[proto.NodeID]string{1: addr},
		RedialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}

	const n = 120
	sendErr := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			for {
				err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest, TS: proto.Timestamp(i)})
				if err == nil {
					break
				}
				if errors.Is(err, ErrClosed) {
					sendErr <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(500 * time.Microsecond)
		}
		sendErr <- nil
	}()

	select {
	case <-firstN:
	case <-time.After(10 * time.Second):
		t.Fatal("first incarnation received nothing")
	}
	// Restart B on the same port mid-stream.
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	var tb2 *TCPTransport
	deadline := time.Now().Add(5 * time.Second)
	for {
		tb2, err = NewTCP(TCPConfig{Self: 1, ListenAddr: addr})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer tb2.Close()
	if err := tb2.Start(func(m *proto.Message) {
		mu.Lock()
		seen[m.TS]++
		gen2 = append(gen2, m.TS)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	// Wait until every message has been seen by one incarnation or the
	// other (retransmission covers the restart gap).
	deadline = time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		complete := len(seen) == n
		mu.Unlock()
		if complete {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			distinct := len(seen)
			mu.Unlock()
			t.Fatalf("only %d of %d distinct messages delivered across restart", distinct, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for ts := proto.Timestamp(1); ts <= n; ts++ {
		if seen[ts] == 0 {
			t.Fatalf("message %d lost across restart", ts)
		}
	}
	// Within the second incarnation delivery must be strictly increasing
	// (retransmits land before new frames; dedup removes repeats).
	for i := 1; i < len(gen2); i++ {
		if gen2[i] <= gen2[i-1] {
			t.Fatalf("second incarnation delivery not increasing at %d: %d then %d",
				i, gen2[i-1], gen2[i])
		}
	}
}

// TestTCPSenderRestartDelivers: a receiver that outlives a sender's
// process keeps the last sequence it took from that peer, and the
// restarted sender — a new transport under the old ID, numbering afresh —
// must still be heard: all of its frames delivered, in order, none
// mistaken for a retransmission.
func TestTCPSenderRestartDelivers(t *testing.T) {
	got := make(chan proto.Timestamp, 64)
	tb := startTCP(t, TCPConfig{Self: 1}, func(m *proto.Message) { got <- m.TS })
	sendRange := func(ta *TCPTransport, from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			sendTo(t, ta, 1, i)
		}
		for want := from; want <= to; want++ {
			select {
			case ts := <-got:
				if ts != proto.Timestamp(want) {
					t.Fatalf("delivered frame %d, want %d", ts, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("frames %d..%d: %d of %d delivered, %d suppressed as duplicates",
					from, to, want-from, to-from+1, tb.LinkStats().DupsSuppressed)
			}
		}
	}
	cfg := TCPConfig{Self: 0, Peers: map[proto.NodeID]string{1: tb.Addr()}}
	ta := startTCP(t, cfg, func(*proto.Message) {})
	sendRange(ta, 1, 50)
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	before := tb.LinkStats().DupsSuppressed
	sendRange(startTCP(t, cfg, func(*proto.Message) {}), 51, 60)
	if after := tb.LinkStats().DupsSuppressed; after != before {
		t.Fatalf("DupsSuppressed %d -> %d: the new incarnation's frames were taken for duplicates", before, after)
	}
}

// TestTCPReliableDupSuppression: a raw peer replaying a data frame (as a
// retransmitting sender would after a reconnect) is deduplicated and
// re-acked at once with the last delivered sequence; the distinct frames
// are delivered once each and covered by a cumulative ack that may be
// delayed, but not by 50 ms, and never goes backwards.
func TestTCPReliableDupSuppression(t *testing.T) {
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	got := make(chan proto.Timestamp, 8)
	if err := tb.Start(func(m *proto.Message) { got <- m.TS }); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	write := func(seq uint64, ts proto.Timestamp) {
		t.Helper()
		if _, err := conn.Write(proto.AppendLinkData(nil, seq, &proto.Message{
			From: 5, To: 1, Kind: proto.KindRequest, TS: ts,
		})); err != nil {
			t.Fatal(err)
		}
	}
	// readAck returns the next ack, which must arrive within 50 ms.
	var lastAck uint64
	readAck := func() uint64 {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		typ, seq, _, err := proto.ReadLinkFrame(conn)
		if err != nil {
			t.Fatalf("no ack within 50 ms of a frame (last ack %d): %v", lastAck, err)
		}
		if typ != proto.LinkAck || seq < lastAck {
			t.Fatalf("typ=%d seq=%d after ack %d: want a non-decreasing ack", typ, seq, lastAck)
		}
		lastAck = seq
		return seq
	}
	write(1, 100)
	write(1, 100) // replayed frame
	// The replay is answered at once, and the answer names frame 1: the
	// delayed ack of the first copy, if it was written before, says the
	// same.
	if seq := readAck(); seq != 1 {
		t.Fatalf("ack after the replayed frame = %d, want 1", seq)
	}
	write(2, 200)
	for readAck() < 2 {
	}
	for _, want := range []proto.Timestamp{100, 200} {
		select {
		case ts := <-got:
			if ts != want {
				t.Fatalf("delivered %d, want %d", ts, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timeout")
		}
	}
	select {
	case ts := <-got:
		t.Fatalf("duplicate delivered: %d", ts)
	case <-time.After(50 * time.Millisecond):
	}
	if ls := tb.LinkStats(); ls.DupsSuppressed != 1 {
		t.Fatalf("DupsSuppressed = %d, want 1", ls.DupsSuppressed)
	}
}

// TestTCPConcurrentCloseSend: Close racing many Senders must not panic,
// deadlock, or trip the race detector; sends after Close fail cleanly.
func TestTCPConcurrentCloseSend(t *testing.T) {
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	ta, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers: map[proto.NodeID]string{1: tb.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest, TS: proto.Timestamp(i)}); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("send: %v", err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := ta.Send(&proto.Message{From: 0, To: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

// TestTCPSendPeerNeverUp: messages to a peer that never appears stay
// queued (no silent drop), the peer reports down, and Close discards
// them without hanging.
func TestTCPSendPeerNeverUp(t *testing.T) {
	ta, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers:         map[proto.NodeID]string{1: deadAddr(t)},
		RedialBackoff: 5 * time.Millisecond,
		DownAfter:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ta.Health()[1] != PeerDown {
		if time.Now().After(deadline) {
			t.Fatalf("peer never reported down: %v", ta.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if qs := ta.QueueStats()[1]; qs.Len != 10 {
		t.Fatalf("queue len = %d, want 10 (messages must stay queued)", qs.Len)
	}
	if ls := ta.LinkStats(); ls.Redials < 2 {
		t.Fatalf("redials = %d, want repeated attempts", ls.Redials)
	}
	start := time.Now()
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v", d)
	}
}

// TestTCPFailureDetection: with heartbeats enabled, killing one member
// of a three-node mesh drives the survivors' detectors to confirmed, and
// a restarted member is reported alive again. The
// addresses are reserved up front (deadAddr) so every transport can be
// constructed with the full mesh in cfg.Peers — the detector snapshots
// its watch list at construction time.
func TestTCPFailureDetection(t *testing.T) {
	addrs := map[proto.NodeID]string{0: deadAddr(t), 1: deadAddr(t), 2: deadAddr(t)}
	peersOf := func(self proto.NodeID) map[proto.NodeID]string {
		m := make(map[proto.NodeID]string)
		for id, a := range addrs {
			if id != self {
				m[id] = a
			}
		}
		return m
	}
	mk := func(self proto.NodeID, confirmed, alive chan proto.NodeID) *TCPTransport {
		tr, err := NewTCP(TCPConfig{
			Self: self, ListenAddr: addrs[self], Peers: peersOf(self),
			RedialBackoff:     10 * time.Millisecond,
			HeartbeatInterval: 25 * time.Millisecond,
			ConfirmAfter:      400 * time.Millisecond,
			OnPeerConfirmed:   func(p proto.NodeID) { confirmed <- p },
			OnPeerAlive:       func(p proto.NodeID) { alive <- p },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(func(*proto.Message) {}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	confirmedA := make(chan proto.NodeID, 8)
	aliveA := make(chan proto.NodeID, 8)
	confirmedB := make(chan proto.NodeID, 8)
	aliveB := make(chan proto.NodeID, 8)
	ta := mk(0, confirmedA, aliveA)
	defer ta.Close()
	tb := mk(1, confirmedB, aliveB)
	defer tb.Close()
	sink := make(chan proto.NodeID, 64)
	tc := mk(2, sink, sink)

	// Let heartbeats flow for several confirm windows: nothing may be
	// confirmed dead while all three members run.
	time.Sleep(800 * time.Millisecond)
	select {
	case p := <-confirmedA:
		t.Fatalf("A confirmed peer %d dead while alive", p)
	case p := <-confirmedB:
		t.Fatalf("B confirmed peer %d dead while alive", p)
	default:
	}

	// Kill node 2: both survivors must confirm it dead.
	if err := tc.Close(); err != nil {
		t.Fatal(err)
	}
	drain := func(ch chan proto.NodeID) {
		for {
			select {
			case <-ch:
			default:
				return
			}
		}
	}
	drain(aliveA) // restart-to-healthy flaps from startup, if any
	drain(aliveB)
	expect := func(ch chan proto.NodeID, want proto.NodeID, what string) {
		t.Helper()
		select {
		case p := <-ch:
			if p != want {
				t.Fatalf("%s: peer %d, want %d", what, p, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s of %d", what, want)
		}
	}
	expect(confirmedA, 2, "confirm on A")
	expect(confirmedB, 2, "confirm on B")
	if s := ta.PeerHealth(2); s != recovery.PeerConfirmed {
		t.Fatalf("PeerHealth(2) on A = %v, want confirmed", s)
	}

	// Restart node 2 at the same address: its heartbeats must flip the
	// survivors back to alive.
	tc2, err := NewTCP(TCPConfig{
		Self: 2, ListenAddr: addrs[2], Peers: peersOf(2),
		RedialBackoff:     10 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tc2.Close()
	if err := tc2.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	expect(aliveA, 2, "alive on A")
	expect(aliveB, 2, "alive on B")
	if s := tb.PeerHealth(2); s != recovery.PeerHealthy {
		t.Fatalf("PeerHealth(2) on B = %v, want healthy", s)
	}
}
