package transport

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hierlock/internal/metrics"
	"hierlock/internal/proto"
	"hierlock/internal/recovery"
)

// PeerState is the transport's health assessment of one peer link.
type PeerState uint8

// Peer health states. A peer starts Up (optimistically), degrades on the
// first connection or write failure, and is reported Down after
// DownAfter consecutive failures; any successful connection returns it
// to Up.
const (
	PeerUp PeerState = iota
	PeerDegraded
	PeerDown
)

// String names the state.
func (s PeerState) String() string {
	switch s {
	case PeerDegraded:
		return "degraded"
	case PeerDown:
		return "down"
	default:
		return "up"
	}
}

// TCPConfig configures a TCP transport endpoint.
type TCPConfig struct {
	// Self is this node's identifier.
	Self proto.NodeID
	// ListenAddr is the address to accept peer connections on
	// (host:port). Required.
	ListenAddr string
	// Peers maps every other node's ID to its listen address.
	Peers map[proto.NodeID]string
	// DialTimeout bounds outbound connection attempts (default 5s).
	DialTimeout time.Duration
	// RedialBackoff is the initial wait between reconnection attempts to
	// an unreachable peer (default 100ms). Each consecutive failure
	// doubles the wait (with ±25% jitter to avoid reconnection storms) up
	// to RedialBackoffMax.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential redial backoff (default 5s).
	RedialBackoffMax time.Duration
	// DownAfter is the number of consecutive connection failures after
	// which a peer is reported Down rather than Degraded (default 3).
	DownAfter int
	// QueueLimit bounds each per-peer outbound queue (queued plus
	// unacknowledged messages) and the inbound delivery mailbox. 0 means
	// unbounded. Send fails with ErrQueueFull at the limit.
	QueueLimit int
	// Reliable is accepted and ignored.
	//
	// Deprecated: the link is always sequenced; removed when the
	// benchmark harness stops setting it.
	Reliable bool
	// OnPeerState, when non-nil, is invoked from transport goroutines
	// whenever a peer's health state changes. It must not block and must
	// not call back into the transport.
	OnPeerState func(peer proto.NodeID, state PeerState)

	// HeartbeatInterval enables the liveness layer: every interval the
	// transport sends a KindHeartbeat frame to each configured peer whose
	// outbound link is otherwise idle (real traffic is proof of life, so
	// heartbeats only bound the silence on quiet links) and ticks a
	// silence-based failure detector fed by every inbound frame. 0
	// disables heartbeats and failure detection entirely.
	HeartbeatInterval time.Duration
	// ConfirmAfter is the silence threshold for confirming a peer dead
	// (default 8×HeartbeatInterval). It must comfortably exceed the worst
	// GC pause or network blip expected in the deployment: recovery
	// regenerates a falsely confirmed peer's locks out from under it and
	// its clients see ErrLockLost.
	ConfirmAfter time.Duration
	// OnPeerConfirmed and OnPeerAlive fire on detector transitions
	// (confirmed dead, heard from again). They run on transport
	// goroutines and must not block; OnPeerConfirmed is the signal the
	// recovery layer acts on.
	OnPeerConfirmed func(proto.NodeID)
	OnPeerAlive     func(proto.NodeID)
}

// TCPTransport connects nodes over TCP with one outbound connection per
// peer. TCP's in-order bytestream plus one writer goroutine per peer
// yields the per-link FIFO guarantee; one reader goroutine per inbound
// connection delivers through a per-node combiner mailbox, serializing
// the Handler. Every message travels in a sequenced link frame
// (proto.AppendLinkData): the sender buffers it until the receiver's
// cumulative ack covers it and retransmits the buffer after a reconnect,
// the receiver suppresses what it has already delivered, so a connection
// reset neither loses nor duplicates a frame while both endpoints live.
type TCPTransport struct {
	cfg     TCPConfig
	ln      net.Listener
	box     *mailbox
	handler Handler // set by Start, before any reader exists

	// detector classifies peers by inbound silence (nil unless
	// HeartbeatInterval is set); hbPeers is the sorted heartbeat fan-out.
	detector *recovery.Detector
	hbPeers  []proto.NodeID

	// ctx is canceled by Close; it gates dialing and backoff waits so
	// Close returns promptly even with unreachable peers.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	started bool
	closed  bool
	writers map[proto.NodeID]*peerWriter
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup

	// Receiver state: highest link sequence delivered per sending peer.
	// It outlives individual connections, which is what makes
	// cross-reconnect deduplication work. A restarted sender numbers
	// from a later wall-clock reading (see newPeerWriter), so its frames
	// are above whatever its previous incarnation left here.
	recvMu         sync.Mutex
	recvSeq        map[proto.NodeID]uint64
	dupsSuppressed uint64

	// Wire-volume counters, maintained by countingConn wrappers around
	// every tracked connection (acks and retransmissions included — this
	// is what actually crossed the wire).
	bytesSent  atomic.Uint64
	bytesRecv  atomic.Uint64
	framesSent atomic.Uint64
	framesRecv atomic.Uint64
	writeCalls atomic.Uint64
}

// countingConn counts bytes crossing a connection into the transport's
// wire-volume counters. It wraps every tracked conn, so reads on
// inbound connections and writes on outbound ones (plus acks flowing
// the other way) are all accounted.
type countingConn struct {
	net.Conn
	t *TCPTransport
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.bytesRecv.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.bytesSent.Add(uint64(n))
	c.t.writeCalls.Add(1)
	return n, err
}

// IOStats is a snapshot of a transport endpoint's wire volume.
type IOStats struct {
	// BytesSent and BytesRecv count bytes written to and read from peer
	// connections, including framing, acks and retransmissions.
	BytesSent, BytesRecv uint64
	// FramesSent and FramesRecv count protocol message frames
	// successfully written and read.
	FramesSent, FramesRecv uint64
	// WriteCalls counts Write invocations on peer connections. With
	// write coalescing, a burst of frames to one peer shares a single
	// write (one syscall), so WriteCalls can be far below FramesSent.
	WriteCalls uint64
}

// IOStats snapshots the endpoint's wire-volume counters.
func (t *TCPTransport) IOStats() IOStats {
	return IOStats{
		BytesSent:  t.bytesSent.Load(),
		BytesRecv:  t.bytesRecv.Load(),
		FramesSent: t.framesSent.Load(),
		FramesRecv: t.framesRecv.Load(),
		WriteCalls: t.writeCalls.Load(),
	}
}

// NewTCP creates a TCP transport endpoint and binds its listener
// immediately, so peers can connect before Start.
func NewTCP(cfg TCPConfig) (*TCPTransport, error) {
	if cfg.ListenAddr == "" {
		return nil, fmt.Errorf("transport: listen address required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 100 * time.Millisecond
	}
	if cfg.RedialBackoffMax <= 0 {
		cfg.RedialBackoffMax = 5 * time.Second
	}
	if cfg.RedialBackoffMax < cfg.RedialBackoff {
		cfg.RedialBackoffMax = cfg.RedialBackoff
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCPTransport{
		cfg:     cfg,
		ln:      ln,
		box:     newMailbox(cfg.QueueLimit),
		ctx:     ctx,
		cancel:  cancel,
		writers: make(map[proto.NodeID]*peerWriter),
		conns:   make(map[net.Conn]struct{}),
		recvSeq: make(map[proto.NodeID]uint64),
	}
	if cfg.HeartbeatInterval > 0 {
		if t.cfg.ConfirmAfter <= 0 {
			t.cfg.ConfirmAfter = 8 * cfg.HeartbeatInterval
		}
		for id := range cfg.Peers {
			t.hbPeers = append(t.hbPeers, id)
		}
		sort.Slice(t.hbPeers, func(i, j int) bool { return t.hbPeers[i] < t.hbPeers[j] })
		t.detector = recovery.NewDetector(recovery.DetectorConfig{
			Peers:        t.hbPeers,
			ConfirmAfter: t.cfg.ConfirmAfter,
			OnConfirm:    cfg.OnPeerConfirmed,
			OnAlive:      cfg.OnPeerAlive,
		}, time.Now())
	}
	return t, nil
}

// PeerHealth returns the failure detector's opinion of a peer (healthy
// when heartbeats are disabled).
func (t *TCPTransport) PeerHealth(peer proto.NodeID) recovery.PeerState {
	if t.detector == nil {
		return recovery.PeerHealthy
	}
	return t.detector.State(peer)
}

// observe feeds one inbound frame to the failure detector as proof of
// the sender's liveness.
func (t *TCPTransport) observe(from proto.NodeID) {
	if t.detector != nil {
		t.detector.Observe(from, time.Now())
	}
}

// heartbeatLoop sends liveness frames to idle peer links and ticks the
// failure detector. A peer whose outbound link already has queued or
// unacknowledged work is skipped: either real traffic is about to prove
// our liveness, or the link is down and stacking heartbeats behind it
// would grow the retransmit buffer without bound for a dead peer.
func (t *TCPTransport) heartbeatLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.ctx.Done():
			return
		case now := <-tick.C:
			// Snapshot under the lock: AddPeer/RemovePeer mutate the
			// fan-out list on live transports.
			t.mu.Lock()
			peers := append([]proto.NodeID(nil), t.hbPeers...)
			t.mu.Unlock()
			for _, peer := range peers {
				if t.peerBacklogged(peer) {
					continue
				}
				_ = t.Send(&proto.Message{
					Kind: proto.KindHeartbeat, From: t.cfg.Self, To: peer,
				})
			}
			t.detector.Tick(now)
		}
	}
}

// peerBacklogged reports whether the peer's outbound link has queued or
// unacknowledged frames.
func (t *TCPTransport) peerBacklogged(peer proto.NodeID) bool {
	t.mu.Lock()
	w := t.writers[peer]
	t.mu.Unlock()
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue)+len(w.unacked) > 0
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Start begins accepting inbound connections and delivering messages.
func (t *TCPTransport) Start(h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if t.started {
		return fmt.Errorf("transport: node %d already started", t.cfg.Self)
	}
	t.started = true
	// Every delivered message was decoded by a readLoop from the pooled
	// codec, delivery is serialized, and the Handler contract forbids
	// retaining the pointer — so the struct is recycled the moment the
	// handler returns, making the steady-state inbound path
	// allocation-free.
	t.handler = func(m *proto.Message) {
		h(m)
		proto.PutMessage(m)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	if t.detector != nil {
		t.wg.Add(1)
		go t.heartbeatLoop()
	}
	return nil
}

// trackConn registers a live connection so Close can interrupt it.
// Returns false (closing the conn) when the transport is shutting down.
func (t *TCPTransport) trackConn(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = c.Close()
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *TCPTransport) untrackConn(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cc := countingConn{Conn: conn, t: t}
		if !t.trackConn(cc) {
			return
		}
		t.wg.Add(1)
		go t.readLoop(cc)
	}
}

// Delayed-ack bounds: a receiver acknowledges once ackEvery frames are
// outstanding on a connection or ackDelay after the first of them,
// whichever comes first.
const (
	ackEvery = 64
	ackDelay = time.Millisecond
)

// acker coalesces one inbound connection's link acks into cumulative
// ones. The reading goroutine notes sequences; a timer flushes the tail.
type acker struct {
	conn  net.Conn
	mu    sync.Mutex
	seq   uint64 // highest sequence to acknowledge
	acked uint64 // highest sequence written
	armed bool   // a flush is scheduled
}

// note records that seq needs acknowledging and writes the ack if now is
// set or ackEvery frames are outstanding; otherwise the timer will. A
// connection's first frame counts as ackEvery outstanding (acked starts
// at 0, sequences near the wall clock), so its sender hears at once that
// the link works.
func (a *acker) note(seq uint64, now bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if seq > a.seq {
		a.seq = seq
	}
	if now || a.seq-a.acked >= ackEvery {
		a.acked = a.seq
		return proto.WriteLinkAck(a.conn, a.seq)
	}
	if !a.armed {
		a.armed = true
		time.AfterFunc(ackDelay, a.flush)
	}
	return nil
}

// flush is the timer's callback. A write error needs no handling here:
// the reader sees the dead connection itself.
func (a *acker) flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.armed = false
	if a.seq > a.acked {
		a.acked = a.seq
		_ = proto.WriteLinkAck(a.conn, a.seq)
	}
}

// readLoop consumes one inbound connection's sequenced data frames,
// suppresses frames the transport has already delivered (retransmissions
// after a reconnect) and acknowledges cumulatively, with a delay, on the
// same connection.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrackConn(conn)
	defer conn.Close()
	br := bufio.NewReader(conn) // one read(2) per burst, not two per frame
	acks := &acker{conn: conn}
	for {
		typ, seq, msg, err := proto.ReadLinkFrame(br)
		if err != nil {
			return
		}
		if typ != proto.LinkData {
			continue // acks are not expected inbound; ignore
		}
		t.framesRecv.Add(1)
		t.observe(msg.From)
		if seq == 0 {
			// Unsequenced out-of-band frame (TCPTransport.SendTo): deliver
			// without deduplication or acknowledgment, leaving the sender's
			// link sequence space untouched. Writers never emit seq 0.
			run, err := t.box.admit(msg)
			if err != nil {
				proto.PutMessage(msg)
				return
			}
			if run {
				t.box.run(msg, t.handler)
			}
			continue
		}
		// Claim the sequence and take the frame's place in the delivery
		// order in one step: a reader still working through a dead
		// connection's buffer races the retransmission on its successor.
		// A heartbeat is liveness only: it consumes its sequence number
		// and is acknowledged, but never delivered. An admitted message
		// belongs to whoever delivers it, so its fields are read first.
		from, hb, run := msg.From, msg.Kind == proto.KindHeartbeat, false
		t.recvMu.Lock()
		last := t.recvSeq[from]
		if seq <= last {
			t.dupsSuppressed++
		} else {
			if !hb {
				run, err = t.box.admit(msg)
			}
			if err == nil {
				t.recvSeq[from] = seq
			}
		}
		t.recvMu.Unlock()
		switch {
		case err != nil:
			// Queue full or closing: drop the frame *unacknowledged* so
			// the sender retransmits it later.
			proto.PutMessage(msg)
			return
		case seq <= last:
			proto.PutMessage(msg)
			// Re-ack at once so a reconnected sender prunes its buffer.
			err = acks.note(last, true)
		default:
			if run {
				t.box.run(msg, t.handler)
			} else if hb {
				proto.PutMessage(msg)
			}
			err = acks.note(seq, false)
		}
		if err != nil {
			return
		}
	}
}

// Send enqueues a message to the peer's writer, connecting lazily. It
// fails with ErrQueueFull when the peer's bounded queue is at its limit.
func (t *TCPTransport) Send(msg *proto.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if !t.started {
		t.mu.Unlock()
		return ErrNotStarted
	}
	w, ok := t.writers[msg.To]
	if !ok {
		addr, known := t.cfg.Peers[msg.To]
		if !known {
			t.mu.Unlock()
			return fmt.Errorf("%w: node %d", ErrUnknown, msg.To)
		}
		w = newPeerWriter(t, msg.To, addr)
		t.writers[msg.To] = w
	}
	t.mu.Unlock()
	return w.put(msg)
}

// Health snapshots the health state of every peer this transport has
// tried to reach (peers never sent to are absent).
func (t *TCPTransport) Health() map[proto.NodeID]PeerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[proto.NodeID]PeerState, len(t.writers))
	for id, w := range t.writers {
		w.mu.Lock()
		out[id] = w.state
		w.mu.Unlock()
	}
	return out
}

// QueueStats snapshots per-peer outbound queue occupancy (queued plus
// unacknowledged messages).
func (t *TCPTransport) QueueStats() map[proto.NodeID]metrics.Queue {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[proto.NodeID]metrics.Queue, len(t.writers))
	for id, w := range t.writers {
		w.mu.Lock()
		out[id] = metrics.Queue{
			Len:       uint64(len(w.queue) + len(w.unacked)),
			HighWater: uint64(w.highWater),
			Limit:     uint64(t.cfg.QueueLimit),
			FullDrops: w.fullDrops,
		}
		w.mu.Unlock()
	}
	return out
}

// InboxStats snapshots the inbound delivery mailbox occupancy.
func (t *TCPTransport) InboxStats() metrics.Queue { return t.box.stats() }

// LinkStats aggregates link-layer resilience counters across all peers.
func (t *TCPTransport) LinkStats() metrics.Link {
	var out metrics.Link
	t.mu.Lock()
	writers := make([]*peerWriter, 0, len(t.writers))
	for _, w := range t.writers {
		writers = append(writers, w)
	}
	t.mu.Unlock()
	for _, w := range writers {
		w.mu.Lock()
		out.Redials += w.redials
		out.Retransmits += w.retransmits
		w.mu.Unlock()
	}
	t.recvMu.Lock()
	out.DupsSuppressed = t.dupsSuppressed
	t.recvMu.Unlock()
	return out
}

// Close stops the listener, writers and delivery loop. It returns
// promptly (well under a second) even when peer writers are mid-dial or
// mid-backoff against unreachable peers.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	t.cancel()
	_ = t.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.box.close()
	t.wg.Wait()
	return nil
}

// linkEntry is one sent-but-unacknowledged message.
type linkEntry struct {
	seq uint64
	msg *proto.Message
}

// Write-coalescing batch caps: one wakeup of the writer drains up to
// maxBatchMessages queued messages, encodes them back to back into one
// reusable buffer and hands the whole burst to the kernel in a single
// write. maxBatchBytes splits a pathological batch (giant token-transfer
// queues) into multiple writes and is also the threshold above which the
// reusable encode buffer is released rather than pinned.
const (
	maxBatchMessages = 128
	maxBatchBytes    = 256 << 10
)

// peerWriter owns the outbound link to one peer: a bounded queue plus a
// writer goroutine that connects lazily and reconnects with capped
// exponential backoff and jitter. Each wakeup drains the queue in
// batches (see maxBatchMessages) so a burst of messages to one peer
// costs one syscall, not one per frame; TCP's bytestream plus the single
// writer goroutine keeps the per-link FIFO guarantee intact. Messages
// stay in the unacked buffer until the peer acknowledges their link
// sequence number and are retransmitted after a reconnect, giving
// exactly-once per-link delivery while both endpoints live.
type peerWriter struct {
	t    *TCPTransport
	peer proto.NodeID
	addr string

	// notify wakes the writer for new messages; kick reports a dead
	// connection discovered by the ack reader; stop retires the writer
	// when its peer leaves the cluster (see TCPTransport.RemovePeer).
	notify chan struct{}
	kick   chan deadConn
	stop   chan struct{}

	// The fields below are owned by the run goroutine exclusively.
	conn net.Conn
	// batch/enc are reusable scratch for the coalesced write path.
	batch []linkEntry
	enc   []byte

	mu          sync.Mutex
	queue       []*proto.Message
	unacked     []linkEntry
	nextSeq     uint64
	highWater   int
	fullDrops   uint64
	redials     uint64
	retransmits uint64
	state       PeerState
	failures    int
}

// deadConn is the ack reader's report of a connection that died, and
// whether the peer acknowledged anything on it first.
type deadConn struct {
	conn  net.Conn
	acked bool
}

func newPeerWriter(t *TCPTransport, peer proto.NodeID, addr string) *peerWriter {
	w := &peerWriter{
		t:      t,
		peer:   peer,
		addr:   addr,
		notify: make(chan struct{}, 1),
		kick:   make(chan deadConn, 1),
		stop:   make(chan struct{}),
		// A receiver that outlives this process keeps the last sequence
		// it took from us. Numbering from the wall clock puts a restarted
		// sender's frames above it (a link carries far less than a frame
		// a nanosecond); numbered from 1 they would all be suppressed as
		// duplicates. Assumes the clock does not step back past the
		// previous incarnation's start.
		nextSeq: uint64(time.Now().UnixNano()),
	}
	t.wg.Add(1)
	go w.run()
	return w
}

// retire shuts the writer down, abandoning queued and unacknowledged
// frames: the peer left the cluster, so there is nobody to deliver them
// to. Must be called at most once (RemovePeer's map removal guarantees
// it).
func (w *peerWriter) retire() { close(w.stop) }

// put enqueues one message, enforcing the configured bound across queued
// plus unacknowledged messages.
func (w *peerWriter) put(msg *proto.Message) error {
	w.mu.Lock()
	if limit := w.t.cfg.QueueLimit; limit > 0 && len(w.queue)+len(w.unacked) >= limit {
		w.fullDrops++
		w.mu.Unlock()
		return fmt.Errorf("%w: peer %d", ErrQueueFull, w.peer)
	}
	w.queue = append(w.queue, msg)
	if occ := len(w.queue) + len(w.unacked); occ > w.highWater {
		w.highWater = occ
	}
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
	return nil
}

func (w *peerWriter) run() {
	defer w.t.wg.Done()
	defer w.dropConn()
	done := w.t.ctx.Done()
	backoff := w.t.cfg.RedialBackoff
	// One reusable retry timer per writer. The old time.After-per-retry
	// pattern minted a fresh runtime timer on every failed attempt; each
	// stayed pinned until it fired, so a long outage against an
	// unreachable peer accumulated garbage timers at the redial rate.
	// Stop/Reset on a single timer keeps a downed link at O(1) timer
	// state. armed tracks whether the timer is set and undrained, which
	// Stop/Reset need to know to keep the channel empty.
	retry := time.NewTimer(time.Hour)
	if !retry.Stop() {
		<-retry.C
	}
	armed := false
	defer retry.Stop()
	disarm := func() {
		if armed {
			if !retry.Stop() {
				<-retry.C
			}
			armed = false
		}
	}
	// wait arms the retry timer for the current backoff and doubles it.
	wait := func() {
		disarm()
		retry.Reset(jitter(backoff))
		armed = true
		backoff *= 2
		if max := w.t.cfg.RedialBackoffMax; backoff > max {
			backoff = max
		}
	}
	for {
		select {
		case <-done:
			return
		case <-w.stop:
			return
		case <-w.notify:
		case k := <-w.kick:
			// The ack reader saw this connection die; ignore stale kicks
			// for connections already replaced.
			if k.conn == w.conn {
				w.dropConn()
				switch {
				case k.acked:
					// It worked until it died: redial at once.
					backoff = w.t.cfg.RedialBackoff
				case w.hasWork():
					// The peer took the connection and closed it without
					// acknowledging a frame (its inbox is full): dialing
					// again now would retransmit into the same refusal, in
					// a loop for as long as its handler is stuck. Wait as
					// after a failed dial.
					wait()
					continue
				}
			}
		case <-retry.C:
			armed = false
		}
		// Connected is not yet recovered: the backoff resets once the
		// peer has acknowledged something (see the kick above).
		if w.flush() {
			wait()
		} else {
			disarm()
		}
	}
}

// jitter spreads a backoff over [3d/4, 5d/4) so a fleet of writers does
// not redial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return 3*d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// flush pushes queued work out on the current connection, dialing if
// needed. It returns true when undelivered work remains and the caller
// should retry after a backoff (the peer is unreachable).
func (w *peerWriter) flush() (retry bool) {
	for {
		if w.conn == nil {
			if !w.hasWork() {
				return false
			}
			rawConn, err := w.dial()
			if err != nil {
				if w.t.ctx.Err() != nil {
					return false
				}
				w.noteFailure()
				return true
			}
			conn := countingConn{Conn: rawConn, t: w.t}
			if !w.t.trackConn(conn) {
				return false
			}
			w.conn = conn
			w.noteUp()
			if !w.retransmitUnacked() {
				continue // write failed; redial
			}
			w.t.wg.Add(1)
			go w.ackLoop(conn)
		}
		if !w.takeBatch() {
			return false
		}
		w.writeEntries(w.batch)
	}
}

// writeEntries encodes entries back to back into the reusable buffer and
// writes them with as few conn.Write calls as possible (one, unless they
// exceed maxBatchBytes). On a write failure it drops the connection and
// reports false; the unwritten tail is in the unacked buffer and goes
// out with it on the next connection.
func (w *peerWriter) writeEntries(entries []linkEntry) bool {
	for i := 0; i < len(entries); {
		w.enc = w.enc[:0]
		j := i
		for j < len(entries) && (j == i || len(w.enc) < maxBatchBytes) {
			w.enc = proto.AppendLinkData(w.enc, entries[j].seq, entries[j].msg)
			j++
		}
		if _, err := w.conn.Write(w.enc); err != nil {
			w.dropConn()
			w.noteFailure()
			return false
		}
		w.t.framesSent.Add(uint64(j - i))
		i = j
	}
	if cap(w.enc) > maxBatchBytes {
		w.enc = nil // one giant token transfer must not pin its buffer
	}
	return true
}

// dial attempts one connection, bounded by DialTimeout and interrupted
// by Close.
func (w *peerWriter) dial() (net.Conn, error) {
	w.mu.Lock()
	w.redials++
	w.mu.Unlock()
	ctx, cancel := context.WithTimeout(w.t.ctx, w.t.cfg.DialTimeout)
	defer cancel()
	var d net.Dialer
	return d.DialContext(ctx, "tcp", w.addr)
}

// takeBatch moves up to maxBatchMessages messages from the head of the
// queue to the unacked buffer, assigning each its link sequence number,
// and leaves them in w.batch. Returns false when there is nothing to
// write.
func (w *peerWriter) takeBatch() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := min(maxBatchMessages, len(w.queue))
	first := len(w.unacked)
	for _, msg := range w.queue[:n] {
		w.nextSeq++
		w.unacked = append(w.unacked, linkEntry{seq: w.nextSeq, msg: msg})
	}
	w.queue = w.queue[n:]
	w.batch = append(w.batch[:0], w.unacked[first:]...)
	return n > 0
}

func (w *peerWriter) hasWork() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue) > 0 || len(w.unacked) > 0
}

// retransmitUnacked replays the unacked buffer on a fresh connection.
func (w *peerWriter) retransmitUnacked() bool {
	w.mu.Lock()
	pending := append([]linkEntry(nil), w.unacked...)
	w.mu.Unlock()
	if !w.writeEntries(pending) {
		return false
	}
	w.mu.Lock()
	w.retransmits += uint64(len(pending))
	w.mu.Unlock()
	return true
}

// ackLoop reads cumulative acks from the outbound connection, pruning
// the unacked buffer; on connection failure it kicks the writer so idle
// links still recover promptly.
func (w *peerWriter) ackLoop(conn net.Conn) {
	defer w.t.wg.Done()
	br := bufio.NewReader(conn)
	acked := false
	for {
		typ, seq, _, err := proto.ReadLinkFrame(br)
		if err != nil {
			_ = conn.Close()
			// Wait for the writer to take the report: a stale one still
			// in the channel must not displace it, or the writer keeps a
			// dead connection with unacknowledged frames on it until the
			// next Send.
			select {
			case w.kick <- deadConn{conn, acked}:
			case <-w.stop:
			case <-w.t.ctx.Done():
			}
			return
		}
		w.t.observe(w.peer) // an ack is proof of life too
		if typ != proto.LinkAck {
			continue
		}
		acked = true
		w.mu.Lock()
		i := 0
		for i < len(w.unacked) && w.unacked[i].seq <= seq {
			i++
		}
		w.unacked = w.unacked[i:]
		w.mu.Unlock()
	}
}

func (w *peerWriter) dropConn() {
	if w.conn == nil {
		return
	}
	_ = w.conn.Close()
	w.t.untrackConn(w.conn)
	w.conn = nil
}

func (w *peerWriter) noteUp() { w.setState(PeerUp, true) }

func (w *peerWriter) noteFailure() { w.setState(PeerDegraded, false) }

func (w *peerWriter) setState(s PeerState, reset bool) {
	w.mu.Lock()
	if reset {
		w.failures = 0
	} else {
		w.failures++
		if w.failures >= w.t.cfg.DownAfter {
			s = PeerDown
		}
	}
	changed := w.state != s
	w.state = s
	w.mu.Unlock()
	if changed && w.t.cfg.OnPeerState != nil {
		w.t.cfg.OnPeerState(w.peer, s)
	}
}
