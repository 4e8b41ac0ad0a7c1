package transport

// The link invariant under a seeded schedule of connection cuts: a reader
// claims a frame's sequence number and its place in the delivery order in
// one step, and acknowledges only what it admitted. A reader still
// working through a dead connection's buffer races the retransmission on
// the successor; claim and admit apart deliver a frame twice, an ack
// ahead of the admit loses the frame a full inbox refused.

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierlock/internal/proto"
)

// cutProxy forwards TCP connections to target and closes each after a
// seeded random number of client bytes, wherever in a frame that falls,
// handing them on in chunks of a seeded random size.
type cutProxy struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup

	mu    sync.Mutex
	rng   *rand.Rand
	cuts  int
	conns map[net.Conn]struct{}
}

// maxCut bounds the bytes one proxied connection carries: ~90-byte frames,
// so a cut falls every hundred frames or so.
const maxCut = 16 << 10

func newCutProxy(t *testing.T, target string, seed int64) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, target: target, rng: rand.New(rand.NewSource(seed)), conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *cutProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = c.Close()
			continue
		}
		p.mu.Lock()
		budget, chunk := 1+p.rng.Intn(maxCut), 1+p.rng.Intn(4096)
		p.conns[c], p.conns[s] = struct{}{}, struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go func() { // acks, uncut; B closing its end closes A's
			defer p.wg.Done()
			defer c.Close()
			buf := make([]byte, 512)
			for {
				n, err := s.Read(buf)
				if _, werr := c.Write(buf[:n]); err != nil || werr != nil {
					return
				}
			}
		}()
		go func() {
			defer p.wg.Done()
			buf := make([]byte, chunk)
			for budget > 0 {
				n, err := c.Read(buf[:min(chunk, budget)])
				if _, werr := s.Write(buf[:n]); err != nil || werr != nil {
					break
				}
				budget -= n
			}
			_ = c.Close()
			_ = s.Close()
			p.mu.Lock()
			if budget == 0 {
				p.cuts++
			}
			delete(p.conns, c)
			delete(p.conns, s)
			p.mu.Unlock()
		}()
	}
}

func (p *cutProxy) close() int {
	_ = p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return p.cuts
}

// TestTCPCutScheduleExactlyOnce: 20 000 frames, a heartbeat after every
// seventh, from A to B through a proxy that cuts the connection a few
// hundred times at seeded byte offsets. B's inbox holds four frames and
// its Handler dawdles now and then, so readers also refuse frames. Every
// frame reaches the Handler exactly once, in send order.
func TestTCPCutScheduleExactlyOnce(t *testing.T) {
	const n = 20000
	var next proto.Timestamp // Handler-only state: serial by contract
	var delivered atomic.Int64
	var wrong atomic.Bool
	done := make(chan struct{}) // closed by the last delivery, or the first wrong one
	tb := startTCP(t, TCPConfig{Self: 1, QueueLimit: 4}, func(m *proto.Message) {
		if next++; m.TS != next && wrong.CompareAndSwap(false, true) {
			t.Errorf("delivery %d has TS %d: the link lost, duplicated or reordered a frame", next, m.TS)
			close(done)
		}
		if next%8 == 0 {
			time.Sleep(50 * time.Microsecond) // let the other reader fill the inbox
		}
		if delivered.Add(1) == n && !wrong.Load() {
			close(done)
		}
	})
	proxy := newCutProxy(t, tb.Addr(), 1)
	ta := startTCP(t, TCPConfig{Self: 0, Peers: map[proto.NodeID]string{1: proxy.ln.Addr().String()},
		RedialBackoff: time.Millisecond, RedialBackoffMax: 4 * time.Millisecond}, func(*proto.Message) {})
	for i := 1; i <= n && !wrong.Load(); i++ {
		// A window, so a cut retransmits hundreds of frames, not all of them.
		for int64(i)-delivered.Load() > 32 && !wrong.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		sendTo(t, ta, 1, i)
		if i%7 == 0 {
			if err := ta.Send(&proto.Message{From: 0, To: 1, Kind: proto.KindHeartbeat}); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Error("stalled")
	}
	time.Sleep(20 * time.Millisecond) // a duplicate of the tail would arrive now
	sent, recv, inbox := ta.LinkStats(), tb.LinkStats(), tb.InboxStats()
	_ = ta.Close()
	cuts := proxy.close()
	t.Logf("%d cuts, %d redials, %d retransmits, %d duplicates suppressed, %d frames refused by a full inbox",
		cuts, sent.Redials, sent.Retransmits, recv.DupsSuppressed, inbox.FullDrops)
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered %d frames of %d", got, n)
	}
	if cuts < 200 || sent.Retransmits == 0 || recv.DupsSuppressed == 0 || inbox.FullDrops == 0 {
		t.Fatal("the schedule did not exercise the link: want >= 200 cuts, retransmissions, suppressed duplicates and refused frames")
	}
}
