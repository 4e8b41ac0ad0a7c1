package hierlock

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"hierlock/internal/journal"
	"hierlock/internal/proto"
	"hierlock/internal/transport"
)

// Cluster is an in-process deployment of n members communicating over an
// in-memory transport. It is the easiest way to embed hierarchical
// locking in a single program (one member per shard/worker) and the
// backbone of the examples and tests.
type Cluster struct {
	net     *transport.ChanNetwork
	members []*Member
}

// NewCluster creates n members (IDs 0..n-1). Member 0 initially holds
// every lock's token; the tree adapts from there.
func NewCluster(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hierlock: cluster size must be positive, got %d", n)
	}
	c := &Cluster{net: transport.NewChanNetwork()}
	for i := 0; i < n; i++ {
		m, err := newMember(proto.NodeID(i), 0, c.net.Node(proto.NodeID(i)), nil, nil, nil)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		c.members = append(c.members, m)
	}
	return c, nil
}

// Size returns the number of members.
func (c *Cluster) Size() int { return len(c.members) }

// Member returns the i-th member.
func (c *Cluster) Member(i int) *Member { return c.members[i] }

// Close shuts down every member and the network.
func (c *Cluster) Close() error {
	for _, m := range c.members {
		_ = m.Close()
	}
	return c.net.Close()
}

// Err returns the first internal error observed by any member, if any.
func (c *Cluster) Err() error {
	for _, m := range c.members {
		if err := m.Err(); err != nil {
			return err
		}
	}
	return nil
}

// TCPMemberConfig configures a member of a TCP cluster.
type TCPMemberConfig struct {
	// ID is this node's identifier (dense small integers).
	ID int
	// Root is the node that initially holds every token (default 0). All
	// members of one cluster must agree.
	Root int
	// ListenAddr is this node's accept address, e.g. ":7420".
	ListenAddr string
	// AdvertiseAddr is the address other members should dial to reach
	// this one, carried in JOIN announcements (default: the listener's
	// actual address, which is wrong behind NAT or with a ":0" listener
	// on a multi-homed host — set it explicitly there). Only meaningful
	// with HeartbeatInterval (runtime membership rides recovery).
	AdvertiseAddr string
	// Peers maps every other member ID to its listen address. A member
	// that will Join a running cluster starts with an empty map and
	// learns the peer set from the seed's JoinAck.
	Peers map[int]string
	// RedialBackoff is the initial wait before reconnecting to an
	// unreachable peer; consecutive failures back off exponentially (with
	// jitter) up to RedialBackoffMax. Defaults: 100ms and 5s.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// QueueLimit bounds each per-peer outbound queue and the inbound
	// delivery queue; 0 means unbounded. At the limit, sends fail rather
	// than buffering without bound.
	QueueLimit int
	// Reliable is accepted and ignored.
	//
	// Deprecated: the link is always sequenced; removed when the
	// benchmark harness stops setting it.
	Reliable bool
	// OnPeerState, when non-nil, is called from transport goroutines each
	// time a peer's health changes ("up", "degraded", "down"). It must not
	// block.
	OnPeerState func(peer int, state string)

	// HeartbeatInterval enables the failure detector and the crash-
	// recovery runtime: the member heartbeats every peer at this interval,
	// confirms a silent peer dead after ConfirmAfter, and then runs an
	// epoch-stamped token-regeneration round with the survivors so locks
	// whose token (or queued requests) died with the peer become usable
	// again. Zero disables recovery: a dead token holder then hangs its
	// lock forever, the pre-recovery behavior. All members of one cluster
	// should agree on this setting.
	HeartbeatInterval time.Duration
	// ConfirmAfter is the silence after which the detector confirms a peer
	// dead (default 8× HeartbeatInterval). It must comfortably exceed the
	// worst expected stall of a healthy peer — GC pause, scheduling hiccup,
	// transient partition: a false confirmation fences a live node out of
	// the new epoch and its holds surface as ErrLockLost.
	ConfirmAfter time.Duration
	// ProbeTimeout is the regenerator's re-probe interval for survivors
	// that have not answered during a recovery round (default 1s).
	ProbeTimeout time.Duration
	// RecoveryTimeout, when set, bounds every blocking Lock/Upgrade call:
	// an operation with no grant within it is abandoned and fails with
	// ErrLockLost. It is the client-side backstop for requests recovery
	// cannot regenerate (see docs/OPERATIONS.md) and must comfortably
	// exceed the worst legitimate wait for a contended lock. Zero
	// disables the bound.
	RecoveryTimeout time.Duration
	// RecoveryQuorum gates regeneration-round commits on fenced
	// participants: 0 (the default) requires a majority of the
	// configured cluster, a positive value sets an explicit threshold,
	// and -1 disables the gate (a round commits once every survivor the
	// detector still trusts has claimed — the pre-quorum behavior, which
	// lets a minority partition mint a competing token). Only meaningful
	// with HeartbeatInterval set. See docs/PROTOCOL.md for the
	// availability tradeoff.
	RecoveryQuorum int

	// DataDir, when set, makes the member durable: a write-ahead journal
	// of every externally-visible lock transition lives under
	// DataDir/member-<ID>, is replayed on restart, and is reconciled
	// with the cluster through a cold-start recovery round (requires
	// HeartbeatInterval; without it the replayed state is still used to
	// seed engines but never reconciled). Empty disables persistence,
	// the pre-journal behavior.
	DataDir string
	// FsyncPolicy selects when journal appends reach stable storage:
	// FsyncBatched (default) amortizes one fsync over the transport's
	// write-coalescing cadence, FsyncAlways syncs inline on the grant
	// path, FsyncNever leaves flushing to the OS. See docs/OPERATIONS.md
	// for the durability windows each policy leaves open.
	FsyncPolicy FsyncPolicy
	// SnapshotEvery compacts the journal after this many WAL records
	// (default 4096; negative disables snapshots).
	SnapshotEvery int

	// Telemetry, when non-nil, is attached before the transport starts,
	// so the sinks observe the member from its first frame. SetTelemetry
	// after NewTCPMember returns misses whatever was sent meanwhile — a
	// journal-restored member's cold-start round, for one — which leaves
	// a cluster-wide auditor with deliveries it never saw sent.
	Telemetry *Telemetry
}

// FsyncPolicy selects a journal durability level; see the journal
// package for exact semantics.
type FsyncPolicy int

// Fsync policies for TCPMemberConfig.FsyncPolicy.
const (
	// FsyncBatched groups fsyncs on the write-coalescing cadence.
	FsyncBatched FsyncPolicy = FsyncPolicy(journal.FsyncBatched)
	// FsyncAlways syncs inline on every journal append.
	FsyncAlways FsyncPolicy = FsyncPolicy(journal.FsyncAlways)
	// FsyncNever never syncs explicitly.
	FsyncNever FsyncPolicy = FsyncPolicy(journal.FsyncNever)
)

// ParseFsyncPolicy parses "batched", "always" or "never" (the lockd
// -fsync flag values) into a FsyncPolicy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	p, err := journal.ParsePolicy(s)
	return FsyncPolicy(p), err
}

// NewTCPMember creates and starts a member that communicates over TCP.
// The returned member is ready once its peers are reachable; requests
// issued earlier are queued by the transport.
func NewTCPMember(cfg TCPMemberConfig) (*Member, error) {
	if cfg.ID < 0 {
		return nil, fmt.Errorf("hierlock: invalid member id %d", cfg.ID)
	}
	peers := make(map[proto.NodeID]string, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		peers[proto.NodeID(id)] = addr
	}
	tcfg := transport.TCPConfig{
		Self:             proto.NodeID(cfg.ID),
		ListenAddr:       cfg.ListenAddr,
		Peers:            peers,
		RedialBackoff:    cfg.RedialBackoff,
		RedialBackoffMax: cfg.RedialBackoffMax,
		QueueLimit:       cfg.QueueLimit,
	}
	if cb := cfg.OnPeerState; cb != nil {
		tcfg.OnPeerState = func(peer proto.NodeID, s transport.PeerState) {
			cb(int(peer), s.String())
		}
	}
	var rec *memberRecovery
	var mref atomic.Pointer[Member]
	if cfg.HeartbeatInterval > 0 {
		tcfg.HeartbeatInterval = cfg.HeartbeatInterval
		tcfg.ConfirmAfter = cfg.ConfirmAfter
		// The detector callbacks fire on transport goroutines, possibly
		// before NewTCPMember returns; they resolve the member through an
		// atomic late-bound reference and re-enter it asynchronously. The
		// fresh goroutines impose no ordering — peerConfirmed/peerAlive
		// re-check the detector's current state before acting, so a
		// callback overtaken by a newer transition becomes a no-op.
		tcfg.OnPeerConfirmed = func(peer proto.NodeID) {
			if m := mref.Load(); m != nil {
				go m.peerConfirmed(peer)
			}
		}
		tcfg.OnPeerAlive = func(peer proto.NodeID) {
			if m := mref.Load(); m != nil {
				go m.peerAlive(peer)
			}
		}
		nodes := []proto.NodeID{proto.NodeID(cfg.ID)}
		for id := range peers {
			nodes = append(nodes, id)
		}
		quorum := cfg.RecoveryQuorum
		switch {
		case quorum == 0:
			quorum = len(nodes)/2 + 1
		case quorum < 0:
			quorum = 0
		}
		rec = &memberRecovery{
			nodes:        nodes,
			probeTimeout: cfg.ProbeTimeout,
			opTimeout:    cfg.RecoveryTimeout,
			quorum:       quorum,
			quorumAuto:   cfg.RecoveryQuorum == 0,
		}
	}
	var jn *journal.Journal
	if cfg.DataDir != "" {
		var err error
		jn, err = journal.Open(
			filepath.Join(cfg.DataDir, fmt.Sprintf("member-%d", cfg.ID)),
			journal.Options{
				Fsync:         journal.Policy(cfg.FsyncPolicy),
				SnapshotEvery: cfg.SnapshotEvery,
			})
		if err != nil {
			return nil, err
		}
	}
	tr, err := transport.NewTCP(tcfg)
	if err != nil {
		if jn != nil {
			_ = jn.Close()
		}
		return nil, err
	}
	if rec != nil {
		rec.advertise = cfg.AdvertiseAddr
		if rec.advertise == "" {
			rec.advertise = tr.Addr()
		}
	}
	m, err := newMember(proto.NodeID(cfg.ID), proto.NodeID(cfg.Root), tr, rec, jn, cfg.Telemetry)
	if err != nil {
		_ = tr.Close()
		if jn != nil {
			_ = jn.Close()
		}
		return nil, err
	}
	mref.Store(m)
	return m, nil
}

// TCPAddr returns the actual listen address of a member created with
// NewTCPMember (useful with ":0" listeners); empty for in-process
// members.
func (m *Member) TCPAddr() string {
	if t, ok := m.tr.(*transport.TCPTransport); ok {
		return t.Addr()
	}
	return ""
}

// PeerHealth describes the transport's view of one peer link.
type PeerHealth struct {
	// State is "up", "degraded" or "down".
	State string
	// QueueLen, QueueHighWater and QueueFullDrops describe the outbound
	// queue to this peer (current occupancy, worst occupancy, sends
	// rejected at the configured limit).
	QueueLen       uint64
	QueueHighWater uint64
	QueueFullDrops uint64
}

// PeerHealth reports per-peer link health for a TCP member. Peers this
// member has never sent to are absent; in-process members return an
// empty map.
func (m *Member) PeerHealth() map[int]PeerHealth {
	out := make(map[int]PeerHealth)
	t, ok := m.tr.(*transport.TCPTransport)
	if !ok {
		return out
	}
	queues := t.QueueStats()
	for id, state := range t.Health() {
		h := PeerHealth{State: state.String()}
		if q, ok := queues[id]; ok {
			h.QueueLen = q.Len
			h.QueueHighWater = q.HighWater
			h.QueueFullDrops = q.FullDrops
		}
		out[int(id)] = h
	}
	return out
}

// LinkCounters aggregates transport resilience counters for a TCP
// member: reconnection attempts, frames retransmitted after a
// reconnect, and duplicate frames suppressed at the receiver.
type LinkCounters struct {
	Redials        uint64
	Retransmits    uint64
	DupsSuppressed uint64
}

// LinkCounters returns the member's transport resilience counters
// (zeros for in-process members).
func (m *Member) LinkCounters() LinkCounters {
	t, ok := m.tr.(*transport.TCPTransport)
	if !ok {
		return LinkCounters{}
	}
	ls := t.LinkStats()
	return LinkCounters{
		Redials:        ls.Redials,
		Retransmits:    ls.Retransmits,
		DupsSuppressed: ls.DupsSuppressed,
	}
}
