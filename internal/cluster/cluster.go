// Package cluster assembles complete simulated deployments: N nodes, each
// running one protocol engine per lock, connected by a latency-modelled
// network with per-link FIFO delivery, driven by the discrete-event
// simulator. It hosts both the paper's hierarchical protocol
// (internal/hlock) and the Naimi–Trehel baseline (internal/naimi) behind
// one client interface, so workloads and experiments are protocol-agnostic.
//
// A built-in oracle continuously verifies mutual exclusion: the multiset
// of modes held across all nodes of any lock must stay pairwise
// compatible. Violations and engine-level protocol errors are recorded on
// the cluster and fail the run.
//
// The package simulates the protocol, not the service around it:
// engines on a seeded event heap, a reliable FIFO link whose only
// property is its latency distribution, and the oracle. Link faults
// (cuts, losses, redials) are tested on the shipping TCP transport.
// Crash recovery, membership, leases, sessions and the Prometheus
// registry exist only in the live runtime and are tested there, on real
// members. What the simulator does offer the shipping analysers is its
// trace ring (auditor, spans, CheckFIFO). It imports none of the runtime.
package cluster

import (
	"fmt"
	"time"

	"hierlock/internal/hlock"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/naimi"
	"hierlock/internal/proto"
	"hierlock/internal/raymond"
	"hierlock/internal/ricart"
	"hierlock/internal/sim"
	"hierlock/internal/suzuki"
	"hierlock/internal/trace"
)

// Protocol selects the locking protocol a cluster runs.
type Protocol uint8

// Available protocols.
const (
	// Hierarchical is the paper's protocol with the five CORBA modes.
	Hierarchical Protocol = iota
	// Naimi is the exclusive-only Naimi–Trehel baseline; all modes map to
	// exclusive ownership.
	Naimi
	// Raymond is the static-tree token baseline (related work [16]):
	// exclusive-only, O(log n) messages on a fixed balanced binary tree.
	Raymond
	// Suzuki is the Suzuki–Kasami broadcast baseline (related work [20]):
	// exclusive-only, Θ(n) messages per request.
	Suzuki
	// Ricart is the Ricart–Agrawala permission-based baseline (the
	// paper's §2 non-token class): exclusive-only, 2(n−1) messages per
	// request.
	Ricart
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case Naimi:
		return "naimi"
	case Raymond:
		return "raymond"
	case Suzuki:
		return "suzuki"
	case Ricart:
		return "ricart"
	default:
		return "hierarchical"
	}
}

// Config describes a simulated deployment.
type Config struct {
	Protocol Protocol
	Nodes    int
	Locks    []proto.LockID
	// Latency is the message-delay distribution (defaults to
	// sim.UniformAround(150ms), the paper's mean point-to-point latency).
	Latency sim.Dist
	// Options ablate hierarchical-protocol features (ignored for Naimi).
	Options hlock.Options
	Seed    int64
	// Trace, when non-nil, records sends, deliveries and client events.
	Trace *trace.Recorder
}

// DefaultLatencyMean is the paper's mean network latency.
const DefaultLatencyMean = 150 * time.Millisecond

// Cluster is a simulated deployment. All access happens on the simulator
// goroutine.
type Cluster struct {
	Sim   *sim.Sim
	Net   *Network
	Nodes []*Node

	// Requests counts client lock requests issued (including message-free
	// local acquisitions), the denominator of the paper's Figure 5.
	Requests uint64

	oracle map[proto.LockID]map[proto.NodeID]modes.Mode
	errs   []error
	trace  *trace.Recorder
	cfg    Config
}

// New builds a cluster per cfg. Node 0 initially holds every token and is
// every other node's initial parent (the star the paper starts from).
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Latency == nil {
		cfg.Latency = sim.UniformAround(DefaultLatencyMean)
	}
	s := sim.New(cfg.Seed)
	c := &Cluster{
		Sim:    s,
		trace:  cfg.Trace,
		oracle: make(map[proto.LockID]map[proto.NodeID]modes.Mode, len(cfg.Locks)),
		cfg:    cfg,
	}
	c.Net = NewNetwork(s, cfg.Latency)
	c.Net.trace = cfg.Trace
	for _, l := range cfg.Locks {
		c.oracle[l] = make(map[proto.NodeID]modes.Mode)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := newNode(c, proto.NodeID(i), cfg)
		c.Nodes = append(c.Nodes, n)
		c.Net.Register(n.ID, n.handle)
	}
	return c
}

// Err returns the first recorded failure (protocol error or oracle
// violation), or nil.
func (c *Cluster) Err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return c.errs[0]
}

func (c *Cluster) fail(err error) {
	if err != nil {
		c.errs = append(c.errs, err)
	}
}

// oracleAcquire records node holding lock in mode and checks pairwise
// compatibility against all other holders.
func (c *Cluster) oracleAcquire(lock proto.LockID, node proto.NodeID, m modes.Mode, tr proto.TraceID) {
	c.trace.Record(trace.Entry{
		At: c.Sim.Now(), Op: trace.OpGranted, Node: node, Lock: lock, Mode: m, Trace: tr,
	})
	holders := c.oracle[lock]
	if holders == nil {
		// Engines are created lazily, so a grant can arrive for a lock the
		// configuration never named (e.g. a workload-generated ID).
		holders = make(map[proto.NodeID]modes.Mode)
		c.oracle[lock] = holders
	}
	for other, om := range holders {
		if other != node && !modes.Compatible(om, m) {
			c.fail(fmt.Errorf("cluster: mutual exclusion violated on lock %d: node %d holds %v while node %d acquires %v",
				lock, other, om, node, m))
		}
	}
	holders[node] = m
}

func (c *Cluster) oracleRelease(lock proto.LockID, node proto.NodeID, tr proto.TraceID) {
	c.trace.Record(trace.Entry{
		At: c.Sim.Now(), Op: trace.OpRelease, Node: node, Lock: lock, Trace: tr,
	})
	delete(c.oracle[lock], node)
}

// HoldersOf returns a snapshot of the oracle's holder map for a lock.
func (c *Cluster) HoldersOf(lock proto.LockID) map[proto.NodeID]modes.Mode {
	out := make(map[proto.NodeID]modes.Mode, len(c.oracle[lock]))
	for k, v := range c.oracle[lock] {
		out[k] = v
	}
	return out
}

// Quiesced reports whether no node has an outstanding request and the
// network is silent.
func (c *Cluster) Quiesced() bool {
	if c.Sim.Pending() > 0 {
		return false
	}
	for _, n := range c.Nodes {
		if len(n.waiters) > 0 {
			return false
		}
	}
	return true
}

// CheckTokens verifies token conservation: every lock of a token-based
// protocol must have exactly one token holder. Zero holders means the
// token was lost; more than one means it was duplicated. An absent
// (evicted or never-created) hierarchical engine holds the token only at
// node 0, the initial root: a non-root engine is never evicted holding
// it, since that is not its initial state. Call when the cluster is
// quiesced — during a transfer the token is legitimately in flight.
// Ricart–Agrawala is permission-based and vacuously conserves.
func (c *Cluster) CheckTokens() error {
	if c.cfg.Protocol == Ricart {
		return nil // permission-based: no token to conserve
	}
	for lock := range c.oracle {
		var holders []proto.NodeID
		for _, n := range c.Nodes {
			switch {
			case n.hier != nil:
				if e := n.hier[lock]; (e == nil && n.ID == 0) || (e != nil && e.IsToken()) {
					holders = append(holders, n.ID)
				}
			default:
				if e, ok := n.excl[lock].(interface{ HasToken() bool }); ok && e.HasToken() {
					holders = append(holders, n.ID)
				}
			}
		}
		switch len(holders) {
		case 1:
		case 0:
			return fmt.Errorf("cluster: token lost on lock %d (no holder)", lock)
		default:
			return fmt.Errorf("cluster: token duplicated on lock %d (holders %v)", lock, holders)
		}
	}
	return nil
}

// Node is one simulated participant running every lock's engine.
type Node struct {
	ID proto.NodeID

	c     *Cluster
	clock proto.Clock
	// Exactly one of hier and excl is non-nil: the hierarchical engines
	// (created lazily, see hierEngine) or one exclusive-only baseline
	// engine per configured lock.
	hier map[proto.LockID]*hlock.Engine
	opts hlock.Options
	excl map[proto.LockID]exclEngine

	nnodes int
	// waiters holds the completion callback of the outstanding request
	// per lock (at most one per lock).
	waiters map[proto.LockID]func()
}

// exclEngine is what the node loop needs of an exclusive-only baseline
// engine (Naimi, Raymond, Suzuki–Kasami, Ricart–Agrawala). What only
// some of them have — a token — is reached by type assertion where it
// is needed.
type exclEngine interface {
	Acquire() (proto.ExclOut, error)
	Release() (proto.ExclOut, error)
	Handle(*proto.Message) (proto.ExclOut, error)
	Mode() modes.Mode
}

// newExcl builds the node's baseline engine for a lock at the initial
// topology: node 0 holds every token and is everyone's initial parent.
func (n *Node) newExcl(lock proto.LockID) exclEngine {
	switch n.c.cfg.Protocol {
	case Naimi:
		return naimi.New(n.ID, lock, 0, n.ID == 0, &n.clock)
	case Raymond:
		return raymond.New(n.ID, lock, raymond.BinaryTreeHolder(n.ID), &n.clock)
	case Suzuki:
		return suzuki.New(n.ID, lock, n.nnodes, n.ID == 0, &n.clock)
	default:
		return ricart.New(n.ID, lock, n.nnodes, &n.clock)
	}
}

// newTrace mints a cluster-unique causal trace ID for a client operation
// originating at this node, derived from the node's Lamport clock so
// seeded runs stay deterministic.
func (n *Node) newTrace() proto.TraceID {
	return proto.TraceID{Node: n.ID, Seq: uint64(n.clock.Tick())}
}

func newNode(c *Cluster, id proto.NodeID, cfg Config) *Node {
	n := &Node{ID: id, c: c, nnodes: cfg.Nodes, waiters: make(map[proto.LockID]func())}
	if cfg.Protocol == Hierarchical {
		// Hierarchical engines are created lazily; see hierEngine.
		n.hier = make(map[proto.LockID]*hlock.Engine, len(cfg.Locks))
		n.opts = cfg.Options
	} else {
		n.excl = make(map[proto.LockID]exclEngine, len(cfg.Locks))
		for _, l := range cfg.Locks {
			n.excl[l] = n.newExcl(l)
		}
	}
	return n
}

// hierEngine returns (creating lazily) the hierarchical engine for a
// lock. Every node derives the same initial topology — node 0 holds the
// token and is everyone's initial parent — so a freshly created engine
// is protocol-correct regardless of when it springs into existence. This
// is the same lazy-creation scheme the live member runtime uses, keeping
// simulated and live state lifecycles identical.
func (n *Node) hierEngine(lock proto.LockID) *hlock.Engine {
	e, ok := n.hier[lock]
	if !ok {
		e = hlock.New(n.ID, lock, 0, n.ID == 0, &n.clock, n.opts)
		n.hier[lock] = e
	}
	return e
}

// Acquire requests lock in mode m; done runs when the lock is held
// (immediately for local acquisitions). For Naimi clusters the mode is
// ignored — every lock is exclusive.
func (n *Node) Acquire(lock proto.LockID, m modes.Mode, done func()) {
	n.AcquirePri(lock, m, 0, done)
}

// AcquirePri is Acquire with a request priority (hierarchical protocol
// only; Naimi ignores it).
func (n *Node) AcquirePri(lock proto.LockID, m modes.Mode, priority uint8, done func()) {
	n.c.Requests++
	tr := n.newTrace()
	n.c.trace.Record(trace.Entry{
		At: n.c.Sim.Now(), Op: trace.OpAcquire, Node: n.ID, Lock: lock, Mode: m, Trace: tr,
	})
	if e, ok := n.excl[lock]; ok {
		out, err := e.Acquire()
		if err != nil {
			n.c.fail(fmt.Errorf("node %d lock %d: %w", n.ID, lock, err))
			return
		}
		n.dispatchExcl(lock, out, done)
		return
	}
	if n.hier == nil {
		n.c.fail(fmt.Errorf("cluster: node %d has no engine for lock %d", n.ID, lock))
		return
	}
	out, err := n.hierEngine(lock).AcquireTraced(m, priority, tr)
	if err != nil {
		n.c.fail(fmt.Errorf("node %d lock %d: %w", n.ID, lock, err))
		return
	}
	n.dispatchHier(lock, out, done)
}

// Upgrade converts a held U lock to W (hierarchical protocol only).
func (n *Node) Upgrade(lock proto.LockID, done func()) {
	n.UpgradePri(lock, 0, done)
}

// UpgradePri is Upgrade with a queue priority for the W self-request.
func (n *Node) UpgradePri(lock proto.LockID, priority uint8, done func()) {
	if n.hier == nil {
		n.c.fail(fmt.Errorf("cluster: upgrade on non-hierarchical lock %d", lock))
		return
	}
	e := n.hierEngine(lock)
	n.c.Requests++
	tr := n.newTrace()
	n.c.trace.Record(trace.Entry{
		At: n.c.Sim.Now(), Op: trace.OpAcquire, Node: n.ID, Lock: lock, Mode: modes.W, Trace: tr,
	})
	out, err := e.UpgradeTraced(priority, tr)
	if err != nil {
		n.c.fail(fmt.Errorf("node %d lock %d: %w", n.ID, lock, err))
		return
	}
	n.dispatchHier(lock, out, done)
}

// Release leaves the critical section of a lock.
func (n *Node) Release(lock proto.LockID) {
	tr := n.newTrace()
	n.c.oracleRelease(lock, n.ID, tr)
	if e, ok := n.excl[lock]; ok {
		out, err := e.Release()
		if err != nil {
			n.c.fail(fmt.Errorf("node %d lock %d: %w", n.ID, lock, err))
			return
		}
		n.dispatchExcl(lock, out, nil)
		return
	}
	out, err := n.hierEngine(lock).ReleaseTraced(tr)
	if err != nil {
		n.c.fail(fmt.Errorf("node %d lock %d: %w", n.ID, lock, err))
		return
	}
	n.dispatchHier(lock, out, nil)
}

// Held returns the mode this node holds on the lock (None if not held).
func (n *Node) Held(lock proto.LockID) modes.Mode {
	if e, ok := n.excl[lock]; ok {
		return e.Mode()
	}
	if e, ok := n.hier[lock]; ok {
		return e.Held()
	}
	return modes.None
}

// HierEngine exposes the hierarchical engine for a lock (tests and
// structural checks), creating it lazily like any protocol-driven
// access; nil for baseline-protocol clusters.
func (n *Node) HierEngine(lock proto.LockID) *hlock.Engine {
	if n.hier == nil {
		return nil
	}
	return n.hierEngine(lock)
}

// NaimiEngine exposes the Naimi–Trehel engine for a lock (tests and
// structural checks); nil on any other protocol's cluster.
func (n *Node) NaimiEngine(lock proto.LockID) *naimi.Engine {
	e, _ := n.excl[lock].(*naimi.Engine)
	return e
}

func (n *Node) handle(msg *proto.Message) {
	if e, ok := n.excl[msg.Lock]; ok {
		out, err := e.Handle(msg)
		if err != nil {
			n.c.fail(fmt.Errorf("node %d lock %d: %w", n.ID, msg.Lock, err))
			return
		}
		n.dispatchExcl(msg.Lock, out, nil)
		return
	}
	if n.hier == nil {
		n.c.fail(fmt.Errorf("cluster: node %d received message for unknown lock %d", n.ID, msg.Lock))
		return
	}
	out, err := n.hierEngine(msg.Lock).Handle(msg)
	if err != nil {
		n.c.fail(fmt.Errorf("node %d lock %d: %w", n.ID, msg.Lock, err))
		return
	}
	n.dispatchHier(msg.Lock, out, nil)
}

// dispatchHier routes an engine step's output: messages to the network,
// acquisition events to the oracle and the waiting callback.
func (n *Node) dispatchHier(lock proto.LockID, out hlock.Out, done func()) {
	if done != nil {
		if _, dup := n.waiters[lock]; dup {
			n.c.fail(fmt.Errorf("cluster: node %d issued overlapping requests on lock %d", n.ID, lock))
			return
		}
		n.waiters[lock] = done
	}
	for i := range out.Msgs {
		n.c.Net.Send(out.Msgs[i])
	}
	for _, ev := range out.Events {
		switch ev.Kind {
		case hlock.EventAcquired, hlock.EventUpgraded:
			n.c.oracleAcquire(lock, n.ID, ev.Mode, ev.Trace)
			done, ok := n.waiters[lock]
			if !ok {
				n.c.fail(fmt.Errorf("cluster: node %d lock %d acquired with no waiter", n.ID, lock))
				continue
			}
			delete(n.waiters, lock)
			done()
		}
	}
}

// dispatchExcl routes an exclusive-only baseline engine's step output
// the same way; every grant is W.
func (n *Node) dispatchExcl(lock proto.LockID, out proto.ExclOut, done func()) {
	if done != nil {
		if _, dup := n.waiters[lock]; dup {
			n.c.fail(fmt.Errorf("cluster: node %d issued overlapping requests on lock %d", n.ID, lock))
			return
		}
		n.waiters[lock] = done
	}
	for i := range out.Msgs {
		n.c.Net.Send(out.Msgs[i])
	}
	if out.Acquired {
		n.c.oracleAcquire(lock, n.ID, modes.W, proto.TraceID{})
		done, ok := n.waiters[lock]
		if !ok {
			n.c.fail(fmt.Errorf("cluster: node %d lock %d acquired with no waiter", n.ID, lock))
			return
		}
		delete(n.waiters, lock)
		done()
	}
}

// Network models the paper's switched LAN: every ordered node pair is an
// independent full-duplex link with randomized per-message latency and
// FIFO delivery (as TCP provides): a slow frame holds every later frame
// on its link behind it, the head-of-line blocking of a reliable
// in-order link, so a heavy-tailed latency distribution is how a
// retransmission or a link stall shows on it.
type Network struct {
	// Metrics counts every message sent, by kind (Figure 7's data).
	Metrics metrics.Messages

	sim      *sim.Sim
	rand     func() time.Duration
	handlers map[proto.NodeID]func(*proto.Message)
	lastAt   map[[2]proto.NodeID]time.Duration
	trace    *trace.Recorder
}

// NewNetwork creates a network over the simulator with the given latency
// distribution.
func NewNetwork(s *sim.Sim, latency sim.Dist) *Network {
	rng := s.NewRand()
	return &Network{
		sim:      s,
		rand:     func() time.Duration { return latency(rng) },
		handlers: make(map[proto.NodeID]func(*proto.Message)),
		lastAt:   make(map[[2]proto.NodeID]time.Duration),
	}
}

// Register installs the message handler for a node.
func (nw *Network) Register(id proto.NodeID, h func(*proto.Message)) {
	nw.handlers[id] = h
}

// Send enqueues a message for delivery after a randomized latency,
// clamped so deliveries on the same ordered link never reorder.
func (nw *Network) Send(msg proto.Message) {
	nw.Metrics.Count(msg.Kind)
	at := nw.sim.Now() + nw.rand()
	nw.trace.Record(trace.Entry{
		At: nw.sim.Now(), Op: trace.OpSend, Node: msg.From,
		Lock: msg.Lock, Mode: msg.Mode, Kind: msg.Kind, From: msg.From, To: msg.To,
		Trace: proto.MsgTrace(&msg), Epoch: msg.Epoch,
	})
	key := [2]proto.NodeID{msg.From, msg.To}
	if last, ok := nw.lastAt[key]; ok && at <= last {
		at = last + time.Nanosecond
	}
	nw.lastAt[key] = at
	h := nw.handlers[msg.To]
	m := msg // copy for the closure
	nw.sim.At(at-nw.sim.Now(), func() {
		if h == nil {
			return
		}
		nw.trace.Record(trace.Entry{
			At: nw.sim.Now(), Op: trace.OpDeliver, Node: m.To,
			Lock: m.Lock, Mode: m.Mode, Kind: m.Kind, From: m.From, To: m.To,
			Trace: proto.MsgTrace(&m), Epoch: m.Epoch,
		})
		h(&m)
	})
}
