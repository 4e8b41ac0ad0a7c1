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
// The package simulates the protocol, not the service around it: engines
// on a seeded event heap, a fault plan, the oracle, and the shared
// recovery.Manager driven under seeded faults (membership.go) for the
// hierarchical engine, the one the live runtime ships. Leases,
// sessions and the Prometheus registry exist only in the live runtime and
// are tested there. What the simulator does offer the shipping analysers
// is its state in their input shapes: the trace ring (auditor, spans,
// CheckFIFO), Inventory (introspect.BuildWaitFor, the deadlock report)
// and HealthSample (watchdog.Runner). It imports none of the runtime.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"hierlock/internal/hlock"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/naimi"
	"hierlock/internal/proto"
	"hierlock/internal/raymond"
	"hierlock/internal/recovery"
	"hierlock/internal/ricart"
	"hierlock/internal/sim"
	"hierlock/internal/suzuki"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
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
	// Faults, when non-nil, injects deterministic network failures (drops,
	// duplicates, delay spikes, partitions, node crash windows) beneath a
	// modelled reliable link layer; see sim.FaultPlan. Fault events are
	// counted in Network.FaultStats and recorded in the trace.
	Faults *sim.FaultPlan
	// Recovery, when non-nil, enables crash recovery (internal/recovery)
	// on the Hierarchical protocol, the one engine the live runtime ships
	// (the baselines ignore it): confirmed node deaths trigger
	// epoch-stamped token-regeneration rounds instead of wedging the
	// crashed node's locks forever. The failure detector is modelled from
	// fault-plan ground truth, so this requires Faults with crash windows
	// to have any effect.
	Recovery *RecoveryOptions
}

// RecoveryOptions tunes the simulated crash-recovery subsystem.
type RecoveryOptions struct {
	// ConfirmAfter models the failure detector's confirmation threshold:
	// each surviving node confirms a crashed peer dead this long after its
	// crash window opens (staggered a millisecond per observer, as real
	// detectors never fire simultaneously). Crash windows shorter than
	// ConfirmAfter are never confirmed — exactly how a silence-based
	// detector rides out brief outages. Default 2s.
	ConfirmAfter time.Duration
	// ProbeTimeout is the regenerator's re-probe interval for survivors
	// that have not answered a recovery probe. Default 1s.
	ProbeTimeout time.Duration
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
	// LostHolds counts holds that did not survive a regeneration round
	// (the live runtime surfaces these to clients as ErrLockLost).
	LostHolds uint64
	// Grants counts completed acquisitions (grants and upgrades) across
	// the cluster, the progress signal HealthSample feeds the stall
	// watchdog.
	Grants uint64

	oracle   map[proto.LockID]map[proto.NodeID]modes.Mode
	errs     []error
	trace    *trace.Recorder
	recovery *RecoveryOptions
	died     map[proto.NodeID]bool

	// cfg is the resolved construction config, kept so runtime joins can
	// mint nodes identical to the originals (see membership.go).
	cfg Config
	// members is the current membership: node IDs admitted and not
	// departed. Node slots in Nodes are never reused; a departed node
	// stays in the slice but leaves this set.
	members map[proto.NodeID]bool
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
		died:   make(map[proto.NodeID]bool),
	}
	if cfg.Recovery != nil && cfg.Protocol == Hierarchical {
		r := *cfg.Recovery
		if r.ConfirmAfter <= 0 {
			r.ConfirmAfter = 2 * time.Second
		}
		if r.ProbeTimeout <= 0 {
			r.ProbeTimeout = time.Second
		}
		c.recovery = &r
	}
	c.cfg = cfg
	c.members = make(map[proto.NodeID]bool, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		c.members[proto.NodeID(i)] = true
	}
	c.Net = NewNetwork(s, cfg.Latency)
	c.Net.trace = cfg.Trace
	if cfg.Faults != nil {
		c.Net.SetFaults(*cfg.Faults)
	}
	for _, l := range cfg.Locks {
		c.oracle[l] = make(map[proto.NodeID]modes.Mode)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := newNode(c, proto.NodeID(i), cfg)
		c.Nodes = append(c.Nodes, n)
		c.Net.Register(n.ID, n.handle)
	}
	if c.recovery != nil && cfg.Faults != nil {
		c.scheduleDetector(cfg.Faults)
	}
	if cfg.Faults != nil {
		c.scheduleRestarts(cfg.Faults)
	}
	return c
}

// scheduleRestarts arms one daemon event per crash window at the
// window's end: the moment a node comes back up, the event applies the
// window's restart fate (see sim.CrashWindow.LoseDisk) and records an
// OpRestart trace entry whose Epoch distinguishes the two — the highest
// epoch the node's surviving state remembers for crash-with-disk, 0 for
// crash-with-disk-loss. Daemon events keep permanent crash windows
// (End far beyond the run horizon) from blocking Quiesced.
func (c *Cluster) scheduleRestarts(plan *sim.FaultPlan) {
	for _, cw := range plan.Crashes {
		cw := cw
		if cw.Node < 0 || cw.Node >= len(c.Nodes) || cw.End <= cw.Start {
			continue
		}
		c.Sim.AtDaemon(cw.End-c.Sim.Now(), func() {
			f := c.Net.Faults()
			if f != nil && f.DownAt(cw.Node, c.Sim.Now()) {
				return // an overlapping window still covers the node
			}
			c.restartNode(proto.NodeID(cw.Node), cw.LoseDisk)
		})
	}
}

// restartNode applies a crash window's restart fate. Crash-with-disk
// (the default) keeps the node's engine state — the in-memory model of
// a process that replayed a perfect journal — so only the trace entry
// and the death bookkeeping change. Crash-with-disk-loss wipes the node
// back to a blank boot: engines at initial topology, outstanding client
// requests abandoned, a fresh recovery manager with no seed table. The
// blank node then catches up through recovery hints when survivors
// fence its stale (epoch-0) traffic, exactly like a live member
// restarting without its data directory.
func (c *Cluster) restartNode(id proto.NodeID, loseDisk bool) {
	n := c.Nodes[id]
	var epoch uint32
	if loseDisk {
		n.wipe()
	} else {
		epoch = n.maxEpoch()
	}
	// A restarted node can die again: let the next confirmation release
	// its (new) holds instead of being swallowed by the once-only guard.
	delete(c.died, id)
	c.trace.Record(trace.Entry{
		At: c.Sim.Now(), Op: trace.OpRestart, Node: id, Epoch: epoch,
	})
}

// scheduleDetector models the failure detector from fault-plan ground
// truth with a finite set of pre-scheduled events, preserving simulator
// quiescence (a periodically ticking detector never would): for every
// crash window and every other node, one confirmation event fires
// ConfirmAfter past the window's start, staggered a millisecond per
// observer. At fire time the event checks the peer is still down —
// windows shorter than ConfirmAfter never confirm, exactly like a
// silence-based detector riding out a brief outage. Restarted nodes are
// not reported alive again: survivors keep excluding them from rounds
// and they catch up through recovery hints, the trajectory a live
// deployment follows when a member restarts with a cold detector.
func (c *Cluster) scheduleDetector(plan *sim.FaultPlan) {
	for _, cw := range plan.Crashes {
		dead := proto.NodeID(cw.Node)
		if int(dead) >= len(c.Nodes) {
			continue
		}
		for i := range c.Nodes {
			if proto.NodeID(i) == dead {
				continue
			}
			obs := c.Nodes[i]
			at := cw.Start + c.recovery.ConfirmAfter + time.Duration(i)*time.Millisecond
			c.Sim.At(at-c.Sim.Now(), func() {
				f := c.Net.Faults()
				if f == nil || !f.DownAt(int(dead), c.Sim.Now()) {
					return // restarted before the silence threshold
				}
				if obs.mgr == nil || c.NodeDown(obs.ID) {
					return
				}
				c.nodeDied(dead)
				obs.mgr.ConfirmDead(dead)
			})
		}
	}
}

// nodeDied models the memory loss of a fail-stop crash, once, at the
// first confirmation: the dead node's holds vanish (recorded as
// releases so the oracle and auditor stay balanced) and its outstanding
// client requests are abandoned.
func (c *Cluster) nodeDied(dead proto.NodeID) {
	if c.died[dead] {
		return
	}
	c.died[dead] = true
	locks := make([]proto.LockID, 0, len(c.oracle))
	for lock, holders := range c.oracle {
		if _, held := holders[dead]; held {
			locks = append(locks, lock)
		}
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	for _, lock := range locks {
		c.oracleRelease(lock, dead, proto.TraceID{})
	}
	clear(c.Nodes[dead].waiters)
}

// lockLost records that a node's hold did not survive a regeneration
// round: the round closed without accounting for it, so the rebuilt
// world may grant conflicting modes. The live runtime surfaces this as
// ErrLockLost; the oracle drops the hold so it mirrors what recovery
// actually guarantees.
func (c *Cluster) lockLost(lock proto.LockID, node proto.NodeID) {
	c.LostHolds++
	if _, held := c.oracle[lock][node]; held {
		c.oracleRelease(lock, node, proto.TraceID{})
	}
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

// CheckTokens verifies epoch-aware token conservation: every lock of a
// token-based protocol must have exactly one token holder among live
// nodes at the lock's highest live epoch. Zero holders means the token
// was lost (a dropped Token message the transport failed to recover, or
// a crash recovery failed to regenerate it); more than one means it was
// duplicated. Nodes inside a crash window are excluded — their state
// died with them — and stale engines from before the last regeneration
// round are fenced out by the epoch filter rather than counted as
// duplicates. Call when the cluster is quiesced — during a transfer the
// token is legitimately in flight. Ricart–Agrawala is permission-based
// and vacuously conserves.
func (c *Cluster) CheckTokens() error {
	if c.cfg.Protocol == Ricart {
		return nil // permission-based: no token to conserve
	}
	for lock := range c.oracle {
		// Pass 1: the highest epoch any live node has seen for this lock.
		// Completed-round seeds count alongside engine state: a recovered
		// root's engine may have been evicted at its post-recovery initial
		// state, with only the seed table remembering the world.
		var maxEpoch uint32
		up := func(e uint32) {
			if e > maxEpoch {
				maxEpoch = e
			}
		}
		for _, n := range c.Nodes {
			if c.NodeDown(n.ID) {
				continue
			}
			if n.mgr != nil {
				if s, ok := n.mgr.SeedFor(lock); ok {
					up(s.Epoch)
				}
			}
			if e := n.hier[lock]; e != nil {
				up(e.Epoch())
			}
		}
		// Pass 2: count token holders among live nodes at that epoch.
		var holders []proto.NodeID
		for _, n := range c.Nodes {
			if c.NodeDown(n.ID) {
				continue
			}
			if n.hier != nil {
				switch e := n.hier[lock]; {
				case e != nil:
					if e.Epoch() == maxEpoch && e.IsToken() {
						holders = append(holders, n.ID)
					}
				case c.absentHolds(n, lock, maxEpoch):
					holders = append(holders, n.ID)
				}
				continue
			}
			// The baselines never run recovery, so maxEpoch is 0 for them.
			if e, ok := n.excl[lock].(interface{ HasToken() bool }); ok && e.HasToken() {
				holders = append(holders, n.ID)
			}
		}
		switch len(holders) {
		case 1:
		case 0:
			return fmt.Errorf("cluster: token lost on lock %d (no live holder at epoch %d)", lock, maxEpoch)
		default:
			return fmt.Errorf("cluster: token duplicated on lock %d (holders %v at epoch %d)", lock, holders, maxEpoch)
		}
	}
	return nil
}

// absentHolds reports whether an absent (evicted or never-created)
// hierarchical engine at node n would hold the token at maxEpoch if
// lazily re-created. At epoch 0 that is the initial topology — node 0
// roots everything; a non-root engine can never be evicted while
// holding the token (not its initial state), so counting node 0 keeps
// conservation exact under eviction. After a regeneration round the
// recovered root plays that role for the round's epoch.
func (c *Cluster) absentHolds(n *Node, lock proto.LockID, maxEpoch uint32) bool {
	if n.mgr != nil {
		if s, ok := n.mgr.SeedFor(lock); ok {
			return s.Root == n.ID && s.Epoch == maxEpoch
		}
	}
	return n.ID == 0 && maxEpoch == 0
}

// NodeDown reports whether a node is currently absent from the cluster:
// inside a scheduled crash window, or gracefully departed via Leave.
// Workloads use it to pause issuing client operations on a downed node;
// the token-conservation and health checks use it to exclude state that
// died (or left) with the process.
func (c *Cluster) NodeDown(id proto.NodeID) bool {
	if !c.members[id] {
		return true
	}
	f := c.Net.Faults()
	return f != nil && f.DownAt(int(id), c.Sim.Now())
}

// HealthSample snapshots the cluster's live state into a stall-watchdog
// sample, the simulator's mirror of Member.HealthSample aggregated over
// every up node. Sample.Now is the virtual clock projected onto an
// epoch-anchored wall time, so seeded runs feed the watchdog identical
// timestamps and its verdicts join the deterministic envelope. The
// simulator models no disk, so FsyncStalls is always zero; chaos tests
// overlay injected stall schedules on top.
func (c *Cluster) HealthSample() watchdog.Sample {
	now := c.Sim.Now()
	s := watchdog.Sample{Now: time.Unix(0, 0).UTC().Add(now), Grants: c.Grants}
	for _, n := range c.Nodes {
		if c.NodeDown(n.ID) {
			continue
		}
		s.TrackedLocks += n.TrackedLocks()
		for _, w := range n.waiters {
			s.Waiters++
			if age := now - w.start; age > s.OldestWaiterAge {
				s.OldestWaiterAge = age
			}
		}
		for _, t0 := range n.roundStart {
			s.RoundsInFlight++
			if age := now - t0; age > s.OldestRoundAge {
				s.OldestRoundAge = age
			}
		}
	}
	return s
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

	// mgr runs the crash-recovery protocol for this node (nil unless
	// Config.Recovery enabled it on the Hierarchical protocol).
	mgr      *recovery.Manager
	cfgLocks []proto.LockID
	nnodes   int

	// waiters holds the completion callback of the outstanding request
	// per lock (at most one per lock).
	waiters map[proto.LockID]waiting

	// roundStart stamps (in virtual time) each regeneration round this
	// node runs as regenerator, the simulator's mirror of the member's
	// roundStart map; HealthSample judges round ages from it.
	roundStart map[proto.LockID]time.Duration

	// left marks a gracefully departed node: its handler drops every
	// frame still in flight to it, modelling the process that shut down
	// after the hand-off (see Cluster.Leave).
	left bool
}

// waiting is one outstanding client request: the mode it asked for, the
// virtual time it was issued (wait ages in HealthSample and Inventory)
// and the completion callback.
type waiting struct {
	mode  modes.Mode
	start time.Duration
	done  func()
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
	n := &Node{ID: id, c: c, nnodes: cfg.Nodes,
		waiters:    make(map[proto.LockID]waiting),
		roundStart: make(map[proto.LockID]time.Duration)}
	if cfg.Protocol == Hierarchical {
		// Hierarchical engines are created lazily (and evicted when idle)
		// to mirror the live member runtime; see hierEngine.
		n.hier = make(map[proto.LockID]*hlock.Engine, len(cfg.Locks))
		n.opts = cfg.Options
	} else {
		n.excl = make(map[proto.LockID]exclEngine, len(cfg.Locks))
		for _, l := range cfg.Locks {
			n.excl[l] = n.newExcl(l)
		}
	}
	if c.recovery != nil {
		n.cfgLocks = append([]proto.LockID(nil), cfg.Locks...)
		n.mgr = n.newManager()
	}
	return n
}

// newManager builds the node's recovery manager from the cluster's
// resolved recovery options. A disk-loss restart constructs a fresh one
// — the old manager's seed table and round state died with the process.
func (n *Node) newManager() *recovery.Manager {
	c := n.c
	// Peers come from the cluster's current membership, not the boot-time
	// node count: a manager rebuilt after a disk-loss restart must not
	// resurrect departed members or miss runtime joiners. A round commits
	// on a majority of them.
	peers := make([]proto.NodeID, 0, len(c.members))
	for id := range c.members {
		peers = append(peers, id)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return recovery.NewManager(recovery.Config{
		Self:             n.ID,
		Nodes:            peers,
		Send:             func(msg proto.Message) { c.Net.Send(msg) },
		Locks:            n.recoveryLocks,
		State:            n.recoveryState,
		PrepareReseed:    n.recoveryPrepare,
		Reseed:           n.recoveryReseed,
		LocksReferencing: n.locksReferencing,
		Clock:            &n.clock,
		After:            func(d time.Duration, fn func()) { c.Sim.At(d, fn) },
		ProbeTimeout:     c.recovery.ProbeTimeout,
		Quorum:           len(peers)/2 + 1,
		OnRoundStart: func(lock proto.LockID, proposed uint32) {
			n.roundStart[lock] = c.Sim.Now()
		},
		OnRoundDone: func(lock proto.LockID, final uint32) {
			delete(n.roundStart, lock)
		},
	})
}

// locksReferencing returns the locks whose live engine state mentions a
// dead peer (recovery.Config.LocksReferencing): the eager-regeneration
// sweep uses it to catch locks whose probable-owner chain passed through
// the dead node even though no local request is outstanding on them.
func (n *Node) locksReferencing(dead proto.NodeID) []proto.LockID {
	var out []proto.LockID
	for lock, e := range n.hier {
		if e.References(dead) {
			out = append(out, lock)
		}
	}
	return out
}

// maxEpoch returns the highest recovery epoch the node's surviving
// state remembers across engines and the completed-round seed table
// (the rejoin epoch a crash-with-disk restart reports).
func (n *Node) maxEpoch() uint32 {
	var max uint32
	up := func(e uint32) {
		if e > max {
			max = e
		}
	}
	if n.mgr != nil {
		for _, s := range n.mgr.Table() {
			up(s.Epoch)
		}
	}
	for _, e := range n.hier {
		up(e.Epoch())
	}
	return max
}

// wipe models a disk-loss restart: every engine reverts to the initial
// topology a blank boot derives, outstanding client requests are
// abandoned (the process that issued them is gone), and the recovery
// manager restarts with no memory of past rounds. The node's Lamport
// clock is deliberately kept monotonic — a real implementation fences
// restarted clocks the same way — so message ordering stays safe.
func (n *Node) wipe() {
	clear(n.waiters)
	clear(n.roundStart) // a crashed regenerator's rounds die with it
	if n.hier != nil {
		n.hier = make(map[proto.LockID]*hlock.Engine)
	}
	for lock := range n.excl {
		n.excl[lock] = n.newExcl(lock)
	}
	if n.mgr != nil {
		n.mgr = n.newManager()
	}
}

// recoveryLocks returns the locks this node can account for in a
// regeneration round: the configured set plus anything it tracks live
// engine state for (workload-generated IDs).
func (n *Node) recoveryLocks() []proto.LockID {
	seen := make(map[proto.LockID]bool, len(n.cfgLocks)+len(n.hier))
	locks := make([]proto.LockID, 0, len(n.cfgLocks)+len(n.hier))
	add := func(l proto.LockID) {
		if !seen[l] {
			seen[l] = true
			locks = append(locks, l)
		}
	}
	for _, l := range n.cfgLocks {
		add(l)
	}
	for l := range n.hier {
		add(l)
	}
	return locks
}

// recoveryState captures the accountable engine state for a recovery
// claim (recovery.Config.State).
func (n *Node) recoveryState(lock proto.LockID) recovery.State {
	e := n.hierEngine(lock)
	return recovery.State{Epoch: e.Epoch(), Held: e.Held(), Token: e.IsToken()}
}

// recoveryPrepare fences the lock's engine for a regeneration round
// (recovery.Config.PrepareReseed).
func (n *Node) recoveryPrepare(lock proto.LockID, epoch uint32) {
	n.hierEngine(lock).PrepareReseed(epoch)
}

// recoveryReseed installs a completed round's outcome into the lock's
// engine and dispatches the fallout (recovery.Config.Reseed).
func (n *Node) recoveryReseed(lock proto.LockID, root proto.NodeID, epoch uint32, accounted modes.Mode, copyset []proto.Request) {
	// The round is over for this lock however it ended: drop any stamp a
	// round yielded to a higher-ID regenerator left behind, so the stall
	// watchdog never judges a superseded round as wedged (the member's
	// recoveryReseed does the same).
	delete(n.roundStart, lock)
	out, lost := n.hierEngine(lock).Reseed(root, epoch, accounted, copyset)
	if lost {
		n.c.lockLost(lock, n.ID)
	}
	n.dispatchHier(lock, out, nil)
}

// RecoveryManager exposes the node's crash-recovery manager (nil when
// recovery is disabled). Tests and experiments only.
func (n *Node) RecoveryManager() *recovery.Manager { return n.mgr }

// hierEngine returns (creating lazily) the hierarchical engine for a
// lock. Every node derives the same initial topology — node 0 holds the
// token and is everyone's initial parent — so a freshly created engine
// is protocol-correct regardless of when it springs into existence.
// After a regeneration round, the recovery manager's seed table replaces
// that derivation: the engine springs into the recovered world (the
// regenerated root, the round's epoch) so eviction stays safe across
// recoveries. This is the same lazy-creation scheme the live member
// runtime uses, keeping simulated and live state lifecycles identical.
func (n *Node) hierEngine(lock proto.LockID) *hlock.Engine {
	e, ok := n.hier[lock]
	if !ok {
		parent, token, epoch := proto.NodeID(0), n.ID == 0, uint32(0)
		if n.mgr != nil {
			if s, seeded := n.mgr.SeedFor(lock); seeded {
				parent, token, epoch = s.Root, n.ID == s.Root, s.Epoch
			}
		}
		e = hlock.New(n.ID, lock, parent, token, &n.clock, n.opts)
		if epoch != 0 {
			e.SeedEpoch(epoch)
		}
		n.hier[lock] = e
	}
	return e
}

// hierEvictThreshold is the tracked-lock count that triggers an
// idle-engine sweep on a node (mirrors the member runtime's
// per-stripe threshold; see Member.maybeEvict for the rationale).
const hierEvictThreshold = 64

// maybeEvictHier sweeps idle hierarchical engines once the node tracks
// more than hierEvictThreshold locks. An engine is idle when no request
// is outstanding on it and it is observably identical to a freshly
// created one (AtInitialState), so dropping and lazily re-creating it
// has no protocol effect.
func (n *Node) maybeEvictHier() {
	if len(n.hier) < hierEvictThreshold {
		return
	}
	n.sweepHier()
}

func (n *Node) sweepHier() int {
	evicted := 0
	for lock, e := range n.hier {
		if _, waiting := n.waiters[lock]; waiting {
			continue
		}
		if e.AtInitialState() {
			delete(n.hier, lock)
			evicted++
		}
	}
	return evicted
}

// EvictIdle immediately evicts every idle hierarchical engine on the
// node, returning the number evicted (no-op on baseline protocols).
func (n *Node) EvictIdle() int {
	if n.hier == nil {
		return 0
	}
	return n.sweepHier()
}

// TrackedLocks returns the number of locks the node currently holds
// engine state for.
func (n *Node) TrackedLocks() int {
	return len(n.hier) + len(n.excl)
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
	n.maybeEvictHier()
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
	if n.left {
		return
	}
	if n.mgr != nil && n.mgr.HandleMessage(msg) {
		return
	}
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
	if out.Stale && n.mgr != nil {
		// The engine fenced the frame out as pre-recovery traffic: the
		// sender may be a restarted node that missed the round. Answer
		// with the completed-round outcome so it catches up.
		n.mgr.Hint(msg.Lock, msg.From)
	}
	n.dispatchHier(msg.Lock, out, nil)
	n.maybeEvictHier()
}

// dispatchHier routes an engine step's output: messages to the network,
// acquisition events to the oracle and the waiting callback.
func (n *Node) dispatchHier(lock proto.LockID, out hlock.Out, done func()) {
	if done != nil {
		if _, dup := n.waiters[lock]; dup {
			n.c.fail(fmt.Errorf("cluster: node %d issued overlapping requests on lock %d", n.ID, lock))
			return
		}
		n.waiters[lock] = waiting{mode: n.hier[lock].Pending(), start: n.c.Sim.Now(), done: done}
	}
	for i := range out.Msgs {
		n.c.Net.Send(out.Msgs[i])
	}
	for _, ev := range out.Events {
		switch ev.Kind {
		case hlock.EventAcquired, hlock.EventUpgraded:
			n.c.oracleAcquire(lock, n.ID, ev.Mode, ev.Trace)
			w, ok := n.waiters[lock]
			if !ok {
				n.c.fail(fmt.Errorf("cluster: node %d lock %d acquired with no waiter", n.ID, lock))
				continue
			}
			delete(n.waiters, lock)
			n.c.Grants++
			w.done()
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
		n.waiters[lock] = waiting{mode: modes.W, start: n.c.Sim.Now(), done: done}
	}
	for i := range out.Msgs {
		n.c.Net.Send(out.Msgs[i])
	}
	if out.Acquired {
		n.c.oracleAcquire(lock, n.ID, modes.W, proto.TraceID{})
		w, ok := n.waiters[lock]
		if !ok {
			n.c.fail(fmt.Errorf("cluster: node %d lock %d acquired with no waiter", n.ID, lock))
			return
		}
		delete(n.waiters, lock)
		n.c.Grants++
		w.done()
	}
}

// Network models the paper's switched LAN: every ordered node pair is an
// independent full-duplex link with randomized per-message latency and
// FIFO delivery (as TCP provides). An optional fault layer (SetFaults)
// perturbs deliveries with drops, duplicates, delay spikes, partitions
// and crash windows while preserving the per-link FIFO contract: a
// recovered frame pushes every later frame on its link behind it, the
// head-of-line blocking a reliable in-order link exhibits.
type Network struct {
	// Metrics counts every message sent, by kind (Figure 7's data).
	Metrics metrics.Messages
	// FaultStats counts injected fault events (zero without a fault plan).
	FaultStats metrics.Faults

	sim      *sim.Sim
	rand     func() time.Duration
	handlers map[proto.NodeID]func(*proto.Message)
	lastAt   map[[2]proto.NodeID]time.Duration
	trace    *trace.Recorder
	faults   *sim.Faults
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

// SetFaults installs a fault plan. The plan's random stream derives from
// the simulator, so the whole faulty run replays from the cluster seed.
// Call before traffic starts.
func (nw *Network) SetFaults(plan sim.FaultPlan) {
	nw.faults = sim.NewFaults(plan, nw.sim.NewRand())
}

// Faults returns the installed fault runtime, or nil.
func (nw *Network) Faults() *sim.Faults { return nw.faults }

// Send enqueues a message for delivery after a randomized latency,
// clamped so deliveries on the same ordered link never reorder. Under a
// LoseOnCrash fault plan a frame touching a crashed endpoint is
// destroyed outright: no send is recorded (a loss is), no delivery is
// scheduled, and the link's FIFO clamp is untouched — the frame never
// existed on the wire as far as ordering is concerned.
func (nw *Network) Send(msg proto.Message) {
	nw.Metrics.Count(msg.Kind)
	tid := proto.MsgTrace(&msg)
	var at time.Duration
	if nw.faults != nil {
		out := nw.faults.Apply(int(msg.From), int(msg.To), nw.sim.Now(), nw.rand)
		nw.FaultStats.Drops += uint64(out.Drops)
		nw.FaultStats.Duplicates += uint64(out.Duplicates)
		nw.FaultStats.DelaySpikes += uint64(out.Spikes)
		nw.FaultStats.Deferrals += uint64(out.Deferrals)
		if out.Lost {
			nw.FaultStats.Lost++
			nw.trace.Record(trace.Entry{
				At: nw.sim.Now(), Op: trace.OpLost, Node: msg.From,
				Lock: msg.Lock, Mode: msg.Mode, Kind: msg.Kind, From: msg.From, To: msg.To,
				Trace: tid, Epoch: msg.Epoch,
			})
			return
		}
		at = out.Deliver
		nw.trace.Record(trace.Entry{
			At: nw.sim.Now(), Op: trace.OpSend, Node: msg.From,
			Lock: msg.Lock, Mode: msg.Mode, Kind: msg.Kind, From: msg.From, To: msg.To,
			Trace: tid, Epoch: msg.Epoch,
		})
		if nw.trace != nil {
			nw.recordFaults(&msg, out)
		}
	} else {
		at = nw.sim.Now() + nw.rand()
		nw.trace.Record(trace.Entry{
			At: nw.sim.Now(), Op: trace.OpSend, Node: msg.From,
			Lock: msg.Lock, Mode: msg.Mode, Kind: msg.Kind, From: msg.From, To: msg.To,
			Trace: tid, Epoch: msg.Epoch,
		})
	}
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

// recordFaults emits one trace entry per injected fault event on a
// message, timestamped at the send (the virtual times of the individual
// retransmissions are internal to the fault model).
func (nw *Network) recordFaults(msg *proto.Message, out sim.Outcome) {
	emit := func(op trace.Op, n int) {
		for i := 0; i < n; i++ {
			nw.trace.Record(trace.Entry{
				At: nw.sim.Now(), Op: op, Node: msg.From,
				Lock: msg.Lock, Mode: msg.Mode, Kind: msg.Kind, From: msg.From, To: msg.To,
				Trace: proto.MsgTrace(msg),
			})
		}
	}
	emit(trace.OpDrop, out.Drops)
	emit(trace.OpDup, out.Duplicates)
	emit(trace.OpDefer, out.Deferrals)
}
