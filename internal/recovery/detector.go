package recovery

import (
	"slices"
	"sync"
	"time"

	"hierlock/internal/proto"
)

// PeerState is a detector's opinion of one peer.
type PeerState uint8

// Detector peer states.
const (
	// PeerHealthy: heard from within ConfirmAfter.
	PeerHealthy PeerState = iota
	// PeerConfirmed: silent for ConfirmAfter; recovery treats the peer as
	// fail-stop dead and regenerates its tokens.
	PeerConfirmed
)

// String names the state.
func (s PeerState) String() string {
	if s == PeerConfirmed {
		return "confirmed"
	}
	return "healthy"
}

// DetectorConfig configures a Detector.
type DetectorConfig struct {
	// Peers lists the nodes to watch (excluding self).
	Peers []proto.NodeID
	// ConfirmAfter is the silence threshold for confirming death (the
	// transport passes its own; see transport.TCPConfig). It must
	// comfortably exceed the worst network partition or GC pause expected
	// in the deployment: a falsely confirmed peer has its locks
	// regenerated out from under it and its clients see ErrLockLost.
	ConfirmAfter time.Duration
	// OnConfirm fires on the →confirmed transition. This is the signal
	// recovery acts on (Manager.ConfirmDead).
	OnConfirm func(proto.NodeID)
	// OnAlive fires when a confirmed peer is heard from again
	// (optional; feeds Manager.Alive for confirmed peers).
	OnAlive func(proto.NodeID)
}

// Detector is a heartbeat-silence failure detector: the transport feeds
// it an observation per inbound frame (any frame proves liveness, so
// heartbeats only bound the silence on otherwise idle links) and ticks
// it periodically; it classifies each peer by how long it has been
// silent and fires edge-triggered callbacks. Callbacks run on the
// ticking goroutine, outside the detector's lock, so they may call back
// into it. Safe for concurrent use.
type Detector struct {
	cfg DetectorConfig

	mu        sync.Mutex
	lastHeard map[proto.NodeID]time.Time
	state     map[proto.NodeID]PeerState
}

// NewDetector creates a detector; every peer starts healthy as of now
// (a node that is already dead at startup is confirmed one ConfirmAfter
// later).
func NewDetector(cfg DetectorConfig, now time.Time) *Detector {
	d := &Detector{
		cfg:       cfg,
		lastHeard: make(map[proto.NodeID]time.Time, len(cfg.Peers)),
		state:     make(map[proto.NodeID]PeerState, len(cfg.Peers)),
	}
	for _, p := range cfg.Peers {
		d.lastHeard[p] = now
	}
	return d
}

// Add starts watching a peer that joined at runtime; it begins healthy
// as of now. Idempotent — re-adding a watched peer resets its silence
// clock and state.
func (d *Detector) Add(peer proto.NodeID, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastHeard[peer] = now
	d.state[peer] = PeerHealthy
}

// Remove stops watching a peer that left gracefully: no further state
// transitions fire for it. Idempotent.
func (d *Detector) Remove(peer proto.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.lastHeard, peer)
	delete(d.state, peer)
}

// Observe records proof of life from a peer (call on every inbound
// frame). A confirmed peer transitions back to healthy and OnAlive
// fires.
func (d *Detector) Observe(peer proto.NodeID, now time.Time) {
	d.mu.Lock()
	if _, watched := d.lastHeard[peer]; !watched {
		d.mu.Unlock()
		return
	}
	d.lastHeard[peer] = now
	wasConfirmed := d.state[peer] == PeerConfirmed
	d.state[peer] = PeerHealthy
	d.mu.Unlock()
	if wasConfirmed && d.cfg.OnAlive != nil {
		d.cfg.OnAlive(peer)
	}
}

// Tick re-evaluates every peer's silence against ConfirmAfter and fires
// OnConfirm for each peer newly confirmed, in ID order. Call
// periodically (a fraction of ConfirmAfter).
func (d *Detector) Tick(now time.Time) {
	var confirmed []proto.NodeID
	d.mu.Lock()
	for peer, heard := range d.lastHeard {
		if now.Sub(heard) >= d.cfg.ConfirmAfter && d.state[peer] != PeerConfirmed {
			d.state[peer] = PeerConfirmed
			confirmed = append(confirmed, peer)
		}
	}
	d.mu.Unlock()
	if d.cfg.OnConfirm == nil {
		return
	}
	slices.Sort(confirmed)
	for _, peer := range confirmed {
		d.cfg.OnConfirm(peer)
	}
}

// State returns the detector's current opinion of a peer (healthy for
// unwatched nodes).
func (d *Detector) State(peer proto.NodeID) PeerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state[peer]
}
