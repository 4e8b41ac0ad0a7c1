package transport

import (
	"fmt"
	"net"
	"sort"
	"time"

	"hierlock/internal/proto"
)

// This file is the TCP transport's runtime-membership surface: the peer
// set, fixed at construction for the original cluster, can grow and
// shrink on a live transport as members join and leave.

// AddPeer registers (or re-points) a peer's listen address on a running
// transport: Send can reach it immediately, the heartbeat fan-out
// includes it, and the failure detector starts watching it as healthy
// from now. Idempotent; re-adding a known peer with a new address only
// affects connections dialed after the call.
func (t *TCPTransport) AddPeer(peer proto.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if t.cfg.Peers == nil {
		t.cfg.Peers = make(map[proto.NodeID]string)
	}
	t.cfg.Peers[peer] = addr
	watched := false
	for _, p := range t.hbPeers {
		if p == peer {
			watched = true
			break
		}
	}
	if !watched {
		t.hbPeers = append(t.hbPeers, peer)
		sort.Slice(t.hbPeers, func(i, j int) bool { return t.hbPeers[i] < t.hbPeers[j] })
	}
	t.detector.Add(peer, time.Now())
}

// RemovePeer retires a departed peer: its address mapping, outbound
// writer (with any queued or unacknowledged frames), heartbeat slot,
// failure-detector watch and receive-dedup state are all dropped, so a
// later re-join under the same ID starts from a clean link. Sends to
// the peer fail with ErrUnknown afterwards. Idempotent.
func (t *TCPTransport) RemovePeer(peer proto.NodeID) {
	t.mu.Lock()
	delete(t.cfg.Peers, peer)
	w := t.writers[peer]
	delete(t.writers, peer)
	for i, p := range t.hbPeers {
		if p == peer {
			t.hbPeers = append(t.hbPeers[:i], t.hbPeers[i+1:]...)
			break
		}
	}
	t.detector.Remove(peer)
	t.mu.Unlock()

	t.recvMu.Lock()
	delete(t.recvSeq, peer)
	t.recvMu.Unlock()

	if w != nil {
		w.retire()
	}
}

// Peers snapshots the current peer address map.
func (t *TCPTransport) Peers() map[proto.NodeID]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[proto.NodeID]string, len(t.cfg.Peers))
	for id, addr := range t.cfg.Peers {
		out[id] = addr
	}
	return out
}

// SendTo delivers one message to a transport endpoint identified only
// by address: a one-shot dial, write and close, outside the per-peer
// writer machinery. It exists for the join handshake — a joiner knows
// the seed member's address but not yet its node ID, which Send would
// need. The frame travels as an unsequenced (seq 0) out-of-band link
// frame: delivered without deduplication, so the receiver's handling
// must be idempotent, and without consuming link sequence space, so the
// regular writer established afterwards starts from a clean sequence.
// Blocks up to dialTimeout.
func (t *TCPTransport) SendTo(addr string, msg *proto.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("transport: send to %s: %w", addr, err)
	}
	cc := countingConn{Conn: conn, t: t}
	defer cc.Close()
	if _, err := cc.Write(proto.AppendLinkData(nil, 0, msg)); err != nil {
		return fmt.Errorf("transport: send to %s: %w", addr, err)
	}
	t.framesSent.Add(1)
	return nil
}
