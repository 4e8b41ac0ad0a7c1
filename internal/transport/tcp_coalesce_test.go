package transport

// Write-coalescing tests: a burst of frames queued for one peer must
// reach the kernel in far fewer Write calls than frames (one syscall per
// wakeup, not one per message), without losing or reordering anything.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierlock/internal/proto"
)

func TestTCPWriteCoalescing(t *testing.T) {
	// Reserve a port with nothing listening, so the sender's first dial
	// fails and the whole burst accumulates in the peer queue.
	addr := deadAddr(t)
	ta, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers:         map[proto.NodeID]string{1: addr},
		RedialBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	if err := ta.Start(func(*proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	const burst = 64
	for i := 0; i < burst; i++ {
		if err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindRequest, TS: proto.Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Bring the receiver up on the reserved port; the writer's next
	// retry connects and drains the queue.
	var mu sync.Mutex
	var seen []proto.Timestamp
	done := make(chan struct{})
	tb, err := NewTCP(TCPConfig{Self: 1, ListenAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	err = tb.Start(func(m *proto.Message) {
		mu.Lock()
		seen = append(seen, m.TS)
		if len(seen) == burst {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		t.Fatalf("burst not delivered: %d/%d frames", n, burst)
	}

	mu.Lock()
	for i, ts := range seen {
		if ts != proto.Timestamp(i) {
			t.Fatalf("frame %d out of order: ts %d", i, ts)
		}
	}
	mu.Unlock()
	// The writer bumps FramesSent after its write returns, so the
	// receiver can see the whole burst first: wait for the counter.
	io := ta.IOStats()
	for deadline := time.Now().Add(10 * time.Second); io.FramesSent < burst && time.Now().Before(deadline); io = ta.IOStats() {
		time.Sleep(time.Millisecond)
	}
	if io.FramesSent < burst {
		t.Fatalf("FramesSent = %d, want >= %d", io.FramesSent, burst)
	}
	// The entire burst fits one batch, so the happy path is a single
	// write; allow a little slack for scheduling, but nowhere near one
	// write per frame.
	if io.WriteCalls > burst/4 {
		t.Fatalf("coalescing ineffective: %d write calls for %d frames", io.WriteCalls, io.FramesSent)
	}
	t.Logf("%d frames in %d write calls", io.FramesSent, io.WriteCalls)
}

// BenchmarkTCPSendThroughput measures the per-message cost of the
// outbound path (encode, coalesce, syscall, receive) over loopback.
func BenchmarkTCPSendThroughput(b *testing.B) {
	var delivered atomic.Int64
	recv, err := NewTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	if err := recv.Start(func(*proto.Message) { delivered.Add(1) }); err != nil {
		b.Fatal(err)
	}
	send, err := NewTCP(TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Peers: map[proto.NodeID]string{1: recv.Addr()},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()
	if err := send.Start(func(*proto.Message) {}); err != nil {
		b.Fatal(err)
	}

	msg := &proto.Message{From: 0, To: 1, Kind: proto.KindRequest}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	for delivered.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	io := send.IOStats()
	if io.FramesSent > 0 {
		b.ReportMetric(float64(io.FramesSent)/float64(io.WriteCalls), "frames/write")
	}
}
