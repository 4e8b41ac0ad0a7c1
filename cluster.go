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
	nodes := make([]proto.NodeID, n)
	for i := range nodes {
		nodes[i] = proto.NodeID(i)
	}
	for i := 0; i < n; i++ {
		m, err := newMember(proto.NodeID(i), 0, c.net.Node(proto.NodeID(i)), nodes, "", nil, nil)
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
	// on a multi-homed host — set it explicitly there).
	AdvertiseAddr string
	// Peers maps every other member ID to its listen address; an entry
	// for ID itself, or for a negative ID, is an error. A member
	// that will Join a running cluster starts with an empty map and
	// learns the peer set from the seed's JoinAck.
	Peers map[int]string
	// QueueLimit bounds each per-peer outbound queue and the inbound
	// delivery queue; 0 means unbounded. At the limit, sends fail rather
	// than buffering without bound.
	QueueLimit int
	// Reliable is accepted and ignored.
	//
	// Deprecated: the link is always sequenced; removed when the
	// benchmark harness stops setting it.
	Reliable bool

	// HeartbeatInterval is the interval at which the member beacons every
	// peer (default 1s). Every member runs the failure detector and the
	// crash-recovery runtime: it confirms a silent peer dead after
	// ConfirmAfter and then runs an epoch-stamped token-regeneration
	// round with the survivors, so locks whose token (or queued requests)
	// died with the peer become usable again.
	HeartbeatInterval time.Duration
	// ConfirmAfter is the silence after which the detector confirms a peer
	// dead (default 8× HeartbeatInterval). It must comfortably exceed the
	// worst expected stall of a healthy peer — GC pause, scheduling hiccup,
	// transient partition: a false confirmation fences a live node out of
	// the new epoch and its holds surface as ErrLockLost.
	ConfirmAfter time.Duration
	// RecoveryTimeout, when set, bounds every blocking Lock/Upgrade call,
	// before or after any confirmation: an operation with no grant within
	// it is abandoned and fails with ErrLockLost. It is the client-side
	// backstop for requests recovery cannot regenerate (see
	// docs/OPERATIONS.md) and must comfortably exceed the worst legitimate
	// wait for a contended lock. Zero disables the bound.
	RecoveryTimeout time.Duration

	// DataDir, when set, makes the member durable: a write-ahead journal
	// of every externally-visible lock transition lives under
	// DataDir/member-<ID>, is replayed on restart, and is reconciled
	// with the cluster through a cold-start recovery round. Empty
	// disables persistence, the pre-journal behavior.
	DataDir string
	// FsyncPolicy selects when journal appends reach stable storage:
	// FsyncBatched (default) amortizes one fsync over the transport's
	// write-coalescing cadence for the records fences rest on (a lock's
	// first, an epoch or root change, a reseed) and leaves token-only
	// records to the next sync, FsyncAlways syncs inline on the grant
	// path, FsyncNever leaves flushing to the OS. See docs/OPERATIONS.md
	// for the durability windows each policy leaves open.
	FsyncPolicy FsyncPolicy

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
	// FsyncBatched groups fsyncs on the write-coalescing cadence and
	// syncs nothing for a record that moves only a lock's token bit: a
	// token passed back and forth costs the disk nothing, and a power
	// loss that costs a member its token bit costs a cold-start round.
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
		// The node set is this member plus its peers, and the recovery
		// majority is taken over it: a self entry would count this
		// member twice.
		if id == cfg.ID || id < 0 {
			return nil, fmt.Errorf("hierlock: invalid peer id %d for member %d (Peers lists the other members)", id, cfg.ID)
		}
		peers[proto.NodeID(id)] = addr
	}
	// The transport's callbacks fire on its goroutines, possibly before
	// NewTCPMember returns; they resolve the member through an atomic
	// late-bound reference.
	var mref atomic.Pointer[Member]
	tcfg := transport.TCPConfig{
		Self:              proto.NodeID(cfg.ID),
		ListenAddr:        cfg.ListenAddr,
		Peers:             peers,
		QueueLimit:        cfg.QueueLimit,
		HeartbeatInterval: cfg.HeartbeatInterval,
		ConfirmAfter:      cfg.ConfirmAfter,
		// The detector callbacks re-enter the member asynchronously. The
		// fresh goroutines impose no ordering — peerConfirmed/peerAlive
		// re-check the detector's current state before acting, so a
		// callback overtaken by a newer transition becomes a no-op.
		OnPeerConfirmed: func(peer proto.NodeID) {
			if m := mref.Load(); m != nil {
				go m.peerConfirmed(peer)
			}
		},
		OnPeerAlive: func(peer proto.NodeID) {
			if m := mref.Load(); m != nil {
				go m.peerAlive(peer)
			}
		},
	}
	nodes := []proto.NodeID{proto.NodeID(cfg.ID)}
	for id := range peers {
		nodes = append(nodes, id)
	}
	var jn *journal.Journal
	if cfg.DataDir != "" {
		var err error
		jn, err = journal.Open(
			filepath.Join(cfg.DataDir, fmt.Sprintf("member-%d", cfg.ID)),
			journal.Options{Fsync: journal.Policy(cfg.FsyncPolicy)})
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
	advertise := cfg.AdvertiseAddr
	if advertise == "" {
		advertise = tr.Addr()
	}
	m, err := newMember(proto.NodeID(cfg.ID), proto.NodeID(cfg.Root), tr, nodes, advertise, jn, cfg.Telemetry)
	if err != nil {
		_ = tr.Close()
		if jn != nil {
			_ = jn.Close()
		}
		return nil, err
	}
	m.recoveryTimeout = cfg.RecoveryTimeout
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

// PeerHealth describes one peer: the failure detector's verdict and the
// outbound link's queue.
type PeerHealth struct {
	// State is "healthy", or "confirmed" once the peer has been silent
	// for ConfirmAfter and recovery treats it as dead.
	State string
	// QueueLen, QueueHighWater and QueueFullDrops describe the outbound
	// queue to this peer (current occupancy, worst occupancy, sends
	// rejected at the configured limit).
	QueueLen       uint64
	QueueHighWater uint64
	QueueFullDrops uint64
}

// PeerHealth reports per-peer health for a TCP member. Peers this
// member has never sent to are absent; in-process members return an
// empty map.
func (m *Member) PeerHealth() map[int]PeerHealth {
	out := make(map[int]PeerHealth)
	t, ok := m.tr.(*transport.TCPTransport)
	if !ok {
		return out
	}
	for id, q := range t.QueueStats() {
		out[int(id)] = PeerHealth{
			State:          t.PeerHealth(id).String(),
			QueueLen:       q.Len,
			QueueHighWater: q.HighWater,
			QueueFullDrops: q.FullDrops,
		}
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
