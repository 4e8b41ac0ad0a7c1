package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

func TestChanNetworkBasic(t *testing.T) {
	nw := NewChanNetwork()
	defer nw.Close()

	var mu sync.Mutex
	var got []proto.Timestamp
	done := make(chan struct{})
	a := nw.Node(0)
	b := nw.Node(1)
	if err := b.Start(func(m *proto.Message) {
		mu.Lock()
		got = append(got, m.TS)
		if len(got) == 100 {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := a.Send(&proto.Message{Kind: proto.KindRequest, From: 0, To: 1, TS: proto.Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	for i, ts := range got {
		if ts != proto.Timestamp(i) {
			t.Fatalf("FIFO violated at %d: %v", i, got[:i+1])
		}
	}
}

func TestChanNetworkErrors(t *testing.T) {
	nw := NewChanNetwork()
	defer nw.Close()
	a := nw.Node(0)
	if err := a.Send(&proto.Message{To: 1}); err == nil {
		t.Error("send before start must fail")
	}
	if err := a.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(func(*proto.Message) {}); err == nil {
		t.Error("double start must fail")
	}
	if err := a.Send(&proto.Message{To: 99}); err == nil {
		t.Error("unknown destination must fail")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&proto.Message{To: 0}); err == nil {
		t.Error("send after close must fail")
	}
	if err := a.Close(); err != nil {
		t.Error("double close must be a no-op")
	}
	// Closing an unstarted node must not hang.
	c := nw.Node(2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(func(*proto.Message) {}); err == nil {
		t.Error("start after close must fail")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	ta, err := NewTCP(TCPConfig{Self: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCP(TCPConfig{
		Self: 1, ListenAddr: "127.0.0.1:0",
		Peers: map[proto.NodeID]string{0: ta.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// Complete the peer maps now that ports are known.
	ta.cfg.Peers = map[proto.NodeID]string{1: tb.Addr()}

	// The transport recycles delivered messages once the handler
	// returns, so retainers must copy.
	gotA := make(chan *proto.Message, 256)
	gotB := make(chan *proto.Message, 256)
	if err := ta.Start(func(m *proto.Message) { cp := *m; gotA <- &cp }); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(func(m *proto.Message) { cp := *m; gotB <- &cp }); err != nil {
		t.Fatal(err)
	}

	// B → A with payload fields intact.
	want := &proto.Message{
		Kind: proto.KindGrant, Lock: 5, From: 1, To: 0, TS: 42, Seq: 9,
		Mode: modes.R, Frozen: modes.MakeSet(modes.W),
	}
	if err := tb.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-gotA:
		if got.Kind != want.Kind || got.Lock != want.Lock || got.TS != want.TS ||
			got.Seq != want.Seq || got.Mode != want.Mode || got.Frozen != want.Frozen {
			t.Fatalf("payload mangled: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout B→A")
	}

	// A → B ordering over one stream.
	for i := 0; i < 200; i++ {
		if err := ta.Send(&proto.Message{Kind: proto.KindRequest, From: 0, To: 1, TS: proto.Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		select {
		case m := <-gotB:
			if m.TS != proto.Timestamp(i) {
				t.Fatalf("TCP FIFO violated at %d: got %d", i, m.TS)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout A→B")
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	ta, err := NewTCP(TCPConfig{Self: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(&proto.Message{To: 7}); err == nil {
		t.Error("unknown peer must fail")
	}
}

func TestTCPLifecycleErrors(t *testing.T) {
	ta, err := NewTCP(TCPConfig{Self: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(&proto.Message{To: 1}); err == nil {
		t.Error("send before start must fail")
	}
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ta.Start(func(*proto.Message) {}); err == nil {
		t.Error("double start must fail")
	}
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ta.Close(); err != nil {
		t.Error("double close must be a no-op")
	}
	if err := ta.Send(&proto.Message{To: 1}); err == nil {
		t.Error("send after close must fail")
	}
	// Close without start must not hang.
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTCP(TCPConfig{Self: 2}); err == nil {
		t.Error("missing listen address must fail")
	}
}

func TestMailboxConcurrentPut(t *testing.T) {
	box := newMailbox(0)
	var mu sync.Mutex
	count := 0
	done := make(chan struct{})
	go box.drain(func(*proto.Message) {
		mu.Lock()
		count++
		if count == 1000 {
			close(done)
		}
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := box.put(&proto.Message{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain stalled")
	}
	box.close()
	if err := box.put(&proto.Message{}); err == nil {
		t.Error("put after close must fail")
	}
}

func TestManyNodesChanNetwork(t *testing.T) {
	nw := NewChanNetwork()
	defer nw.Close()
	const n = 20
	var mu sync.Mutex
	recv := make(map[proto.NodeID]int)
	var wg sync.WaitGroup
	wg.Add(n * (n - 1))
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		if err := nw.Node(id).Start(func(m *proto.Message) {
			mu.Lock()
			recv[id]++
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := nw.Node(proto.NodeID(i)).Send(&proto.Message{From: proto.NodeID(i), To: proto.NodeID(j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ok := make(chan struct{})
	go func() { wg.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast incomplete")
	}
	for id, c := range recv {
		if c != n-1 {
			t.Fatalf("node %d received %d, want %d", id, c, n-1)
		}
	}
}

func TestChanNetworkNodeIdempotent(t *testing.T) {
	nw := NewChanNetwork()
	defer nw.Close()
	if nw.Node(3) != nw.Node(3) {
		t.Fatal("Node must return the same endpoint per id")
	}
	_ = fmt.Sprint(nw.Node(3)) // endpoint is printable, no panic
}
