// Package transport provides live message transports for the locking
// protocol: an in-process channel network for single-binary deployments
// and tests, and a TCP transport (package net) for real clusters.
//
// Both guarantee the delivery contract the protocol engines assume:
// messages between an ordered pair of nodes arrive in send order, and
// delivery callbacks for one destination node run sequentially.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"hierlock/internal/metrics"
	"hierlock/internal/proto"
)

// Handler consumes inbound messages for a node. Calls are serialized per
// receiving node. The message is only valid for the duration of the
// call: the TCP transport recycles the struct through the codec's
// message pool the moment the handler returns (copy it to keep it).
// Slices decoded into the message (Queue, Vec) may be retained — their
// backing arrays are never reused.
type Handler func(*proto.Message)

// Transport sends protocol messages on behalf of one node.
type Transport interface {
	// Start registers the inbound handler and begins delivery. It must be
	// called exactly once before Send.
	Start(h Handler) error
	// Send enqueues a message to msg.To. It never blocks on slow peers.
	Send(msg *proto.Message) error
	// Close stops delivery and releases resources. Pending messages may
	// be dropped.
	Close() error
}

// Transport errors.
var (
	ErrClosed     = errors.New("transport: closed")
	ErrNotStarted = errors.New("transport: not started")
	ErrUnknown    = errors.New("transport: unknown destination")
	// ErrQueueFull is returned by Send when a bounded queue (per-peer
	// outbound buffer or inbound delivery mailbox) is at its configured
	// limit. The message is not enqueued; the caller decides whether to
	// retry, shed load, or treat the peer as overloaded.
	ErrQueueFull = errors.New("transport: queue full")
)

// mailbox serializes delivery to one node in arrival order, without
// deadlocking senders. A limit of 0 leaves its queue unbounded; otherwise
// a message that would exceed it is refused with ErrQueueFull.
//
// The in-process network drains it from one goroutine (put + drain):
// chanTransport.Send runs under the sender's shard mutex, and delivering
// inline there would self-deadlock on the reply. The TCP transport uses
// it as a combiner (admit + run): the reader that finds nobody delivering
// runs the Handler itself and then whatever queued behind it, so the
// queue holds only what arrived while a delivery was in progress.
type mailbox struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*proto.Message
	busy      bool // the drain goroutine is alive, or a combiner is delivering
	closed    bool
	limit     int
	highWater int
	fullDrops uint64
}

func newMailbox(limit int) *mailbox {
	m := &mailbox{limit: limit}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg *proto.Message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cond.Signal()
	return m.putLocked(msg)
}

func (m *mailbox) putLocked(msg *proto.Message) error {
	if m.closed {
		return ErrClosed
	}
	if m.limit > 0 && len(m.queue) >= m.limit {
		m.fullDrops++
		return ErrQueueFull
	}
	m.queue = append(m.queue, msg)
	if len(m.queue) > m.highWater {
		m.highWater = len(m.queue)
	}
	return nil
}

// admit is the combiner's put. With nobody delivering, the caller becomes
// the deliverer (run == true: it must call run(msg, h)) and nothing is
// queued; otherwise msg queues behind the delivery in progress.
func (m *mailbox) admit(msg *proto.Message) (run bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.busy || m.closed {
		return false, m.putLocked(msg)
	}
	m.busy = true
	return true, nil
}

// run delivers msg, then everything admitted meanwhile, on the caller's
// goroutine.
func (m *mailbox) run(msg *proto.Message, h Handler) {
	for {
		h(msg)
		m.mu.Lock()
		if len(m.queue) == 0 || m.closed {
			m.busy = false
			m.cond.Broadcast() // close waits for the delivery in flight
			m.mu.Unlock()
			return
		}
		msg, m.queue = m.queue[0], m.queue[1:]
		m.mu.Unlock()
	}
}

// stats snapshots the queue's occupancy counters.
func (m *mailbox) stats() metrics.Queue {
	m.mu.Lock()
	defer m.mu.Unlock()
	return metrics.Queue{
		Len:       uint64(len(m.queue)),
		HighWater: uint64(m.highWater),
		Limit:     uint64(m.limit),
		FullDrops: m.fullDrops,
	}
}

// drain delivers queued messages to h until closed.
func (m *mailbox) drain(h Handler) {
	m.mu.Lock()
	m.busy = true
	for {
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			break
		}
		msg := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		h(msg)
		m.mu.Lock()
	}
	m.busy = false
	m.cond.Broadcast()
	m.mu.Unlock()
}

// close refuses further messages and returns once no delivery is in
// flight: the drain goroutine has exited, or the combiner has returned.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	for m.busy {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// ChanNetwork is an in-process hub connecting n nodes with goroutine
// mailboxes. It implements the per-link FIFO contract trivially: puts
// from one sender are ordered by the sender's own serialization, and each
// node's mailbox preserves arrival order.
type ChanNetwork struct {
	mu    sync.Mutex
	nodes map[proto.NodeID]*chanTransport
}

// NewChanNetwork creates an empty hub.
func NewChanNetwork() *ChanNetwork {
	return &ChanNetwork{nodes: make(map[proto.NodeID]*chanTransport)}
}

// Node returns (creating if needed) the transport endpoint for id.
func (n *ChanNetwork) Node(id proto.NodeID) Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.nodes[id]
	if !ok {
		t = &chanTransport{net: n, id: id, box: newMailbox(0)}
		n.nodes[id] = t
	}
	return t
}

// Close shuts down every endpoint.
func (n *ChanNetwork) Close() error {
	n.mu.Lock()
	nodes := make([]*chanTransport, 0, len(n.nodes))
	for _, t := range n.nodes {
		nodes = append(nodes, t)
	}
	n.mu.Unlock()
	for _, t := range nodes {
		_ = t.Close()
	}
	return nil
}

func (n *ChanNetwork) lookup(id proto.NodeID) (*chanTransport, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.nodes[id]
	return t, ok
}

type chanTransport struct {
	net *ChanNetwork
	id  proto.NodeID
	box *mailbox

	mu      sync.Mutex
	started bool
	closed  bool
}

func (t *chanTransport) Start(h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if t.started {
		return fmt.Errorf("transport: node %d already started", t.id)
	}
	t.started = true
	go t.box.drain(h)
	return nil
}

func (t *chanTransport) Send(msg *proto.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if !t.started {
		t.mu.Unlock()
		return ErrNotStarted
	}
	t.mu.Unlock()
	dst, ok := t.net.lookup(msg.To)
	if !ok {
		return fmt.Errorf("%w: node %d", ErrUnknown, msg.To)
	}
	return dst.box.put(msg)
}

func (t *chanTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.box.close()
	return nil
}
