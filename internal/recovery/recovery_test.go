package recovery

import (
	"testing"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// harness wires one Manager to scripted engine state and records every
// callback invocation.
type harness struct {
	t     *testing.T
	m     *Manager
	clock proto.Clock

	state   map[proto.LockID]State
	locks   []proto.LockID
	sent    []proto.Message
	fenced  []proto.LockID
	reseeds []reseedCall
}

type reseedCall struct {
	lock      proto.LockID
	root      proto.NodeID
	epoch     uint32
	accounted modes.Mode
	copyset   []proto.Request
}

func newHarness(t *testing.T, self proto.NodeID, nodes []proto.NodeID) *harness {
	h := &harness{t: t, state: make(map[proto.LockID]State)}
	h.m = NewManager(Config{
		Self:  self,
		Nodes: nodes,
		Send:  func(m proto.Message) { h.sent = append(h.sent, m) },
		Locks: func() []proto.LockID { return h.locks },
		State: func(l proto.LockID) State { return h.state[l] },
		PrepareReseed: func(l proto.LockID, epoch uint32) {
			h.fenced = append(h.fenced, l)
			st := h.state[l]
			if epoch > st.Epoch {
				st.Epoch = epoch
				h.state[l] = st
			}
		},
		Reseed: func(l proto.LockID, root proto.NodeID, epoch uint32, acc modes.Mode, cs []proto.Request) {
			h.reseeds = append(h.reseeds, reseedCall{l, root, epoch, acc, cs})
			st := h.state[l]
			st.Epoch = epoch
			st.Token = root == self
			h.state[l] = st
		},
		Clock: &h.clock,
	})
	return h
}

func (h *harness) drainSent() []proto.Message {
	s := h.sent
	h.sent = nil
	return s
}

func TestSoleSurvivorRegeneratesLocally(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1})
	h.locks = []proto.LockID{7}
	h.state[7] = State{Epoch: 0} // token was at the dead node

	h.m.ConfirmDead(1)

	if len(h.reseeds) != 1 {
		t.Fatalf("reseeds = %+v, want exactly one", h.reseeds)
	}
	r := h.reseeds[0]
	if r.lock != 7 || r.root != 0 || r.epoch != 1 || r.accounted != modes.None || len(r.copyset) != 0 {
		t.Fatalf("reseed = %+v", r)
	}
	if s, ok := h.m.SeedFor(7); !ok || s.Root != 0 || s.Epoch != 1 {
		t.Fatalf("SeedFor = %+v, %v", s, ok)
	}
	// The only messages are the probes... none: the sole expected set is
	// empty, so nothing should have been sent.
	for _, m := range h.drainSent() {
		t.Fatalf("unexpected message %v", m)
	}
}

func TestRoundElectsStrongestHolderAsRoot(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2, 3})
	h.locks = []proto.LockID{1}
	h.state[1] = State{Epoch: 0, Held: modes.R}

	h.m.ConfirmDead(3) // the token holder died
	probes := h.drainSent()
	if len(probes) != 2 {
		t.Fatalf("probes = %v, want to nodes 1 and 2", probes)
	}
	for i, want := range []proto.NodeID{1, 2} {
		p := probes[i]
		if p.Kind != proto.KindProbe || p.To != want || p.Epoch != 1 {
			t.Fatalf("probe %d = %+v", i, p)
		}
	}
	if len(h.fenced) == 0 || h.fenced[0] != 1 {
		t.Fatalf("own engine not fenced first: %v", h.fenced)
	}

	// Node 1 claims a W hold at a higher epoch; node 2 claims nothing.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 1, From: 1, To: 0, Epoch: 1,
		Owned: modes.W, Seq: EncodeClaimSeq(4, true),
	})
	if len(h.reseeds) != 0 {
		t.Fatal("round closed before all claims arrived")
	}
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 1, From: 2, To: 0, Epoch: 1,
		Owned: modes.None, Seq: EncodeClaimSeq(0, false),
	})

	// Final epoch must exceed node 1's claimed epoch 4; root is the W
	// holder; the copyset carries this node's R hold.
	if len(h.reseeds) != 1 {
		t.Fatalf("reseeds = %+v", h.reseeds)
	}
	r := h.reseeds[0]
	if r.root != 1 || r.epoch != 5 || r.accounted != modes.R || len(r.copyset) != 0 {
		t.Fatalf("local reseed = %+v", r)
	}
	var recovered []proto.Message
	for _, m := range h.drainSent() {
		if m.Kind == proto.KindRecovered {
			recovered = append(recovered, m)
		}
	}
	if len(recovered) != 2 { // one per surviving peer; self applies locally
		t.Fatalf("recovered fan-out = %+v", recovered)
	}
	for _, m := range recovered {
		if m.Epoch != 5 || m.Req.Origin != 1 {
			t.Fatalf("recovered = %+v", m)
		}
		if m.To == 1 {
			// The root's copy carries the copyset: node 0's R hold.
			if len(m.Queue) != 1 || m.Queue[0].Origin != 0 || m.Queue[0].Mode != modes.R {
				t.Fatalf("root copyset = %+v", m.Queue)
			}
			if m.Owned != modes.W {
				t.Fatalf("root accounted = %v", m.Owned)
			}
		} else if len(m.Queue) != 0 {
			t.Fatalf("non-root recovered carries a copyset: %+v", m)
		}
	}
}

func TestUnsolicitedClaimStartsRound(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.locks = nil // the regenerator has never touched the nominated lock
	h.state[9] = State{}

	h.m.ConfirmDead(2)
	h.drainSent()

	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 9, From: 1, To: 0, Epoch: 3,
		Owned: modes.R, Seq: EncodeClaimSeq(3, false),
	})
	var probed bool
	for _, m := range h.drainSent() {
		if m.Kind == proto.KindProbe && m.Lock == 9 && m.To == 1 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("unsolicited claim did not start a round")
	}
}

func TestNonRegeneratorNominatesItsLocks(t *testing.T) {
	h := newHarness(t, 2, []proto.NodeID{0, 1, 2})
	h.locks = []proto.LockID{4}
	h.state[4] = State{Epoch: 2, Held: modes.U, Token: true}

	h.m.ConfirmDead(1) // node 0 survives and is the regenerator
	sent := h.drainSent()
	if len(sent) != 1 {
		t.Fatalf("sent = %+v", sent)
	}
	c := sent[0]
	if c.Kind != proto.KindClaim || c.To != 0 || c.Lock != 4 {
		t.Fatalf("nomination = %+v", c)
	}
	if ep, tok := DecodeClaimSeq(c.Seq); ep != 2 || !tok || c.Owned != modes.U {
		t.Fatalf("nomination state = %+v", c)
	}
}

// TestEarlyNominationBufferedUntilConfirm: a nomination that beats the
// local detector's own confirmation (detector skew across nodes is up
// to a heartbeat period; the claim arrives in milliseconds) must not be
// dropped — it is buffered and replayed once ConfirmDead runs, or the
// nominator's lock would never get a regeneration round.
func TestEarlyNominationBufferedUntilConfirm(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.locks = nil // only the nominator tracks lock 9
	h.state[9] = State{}

	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 9, From: 1, To: 0, Epoch: 0,
		Owned: modes.R, Seq: EncodeClaimSeq(0, false),
	})
	if sent := h.drainSent(); len(sent) != 0 {
		t.Fatalf("acted on a nomination before local confirmation: %+v", sent)
	}

	h.m.ConfirmDead(2)
	var probed bool
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindProbe && msg.Lock == 9 && msg.To == 1 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("buffered nomination not replayed at ConfirmDead")
	}
}

// TestNominationRetriesUntilRecovered: a non-regenerator re-sends its
// nominations every ProbeTimeout (the first may be lost in the crash,
// or discarded by a regenerator whose detector lags) and stops once it
// observes the lock recovered into a newer epoch.
func TestNominationRetriesUntilRecovered(t *testing.T) {
	var timers []func()
	h := newHarness(t, 2, []proto.NodeID{0, 1, 2})
	h.m.cfg.After = func(d time.Duration, fn func()) { timers = append(timers, fn) }
	h.locks = []proto.LockID{4}
	h.state[4] = State{Epoch: 2, Held: modes.U, Token: true}

	h.m.ConfirmDead(1)
	sent := h.drainSent()
	if len(sent) != 1 || sent[0].Kind != proto.KindClaim || sent[0].To != 0 {
		t.Fatalf("nomination = %+v", sent)
	}
	if len(timers) != 1 {
		t.Fatalf("timers = %d, want the renomination timer", len(timers))
	}

	timers[0]() // nothing observed yet: re-send
	sent = h.drainSent()
	if len(sent) != 1 || sent[0].Kind != proto.KindClaim || sent[0].To != 0 || sent[0].Lock != 4 {
		t.Fatalf("renomination = %+v", sent)
	}
	if len(timers) != 2 {
		t.Fatal("renomination did not reschedule")
	}

	// The regenerator's round completes: Recovered supersedes the
	// nomination and the retry chain stops.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindRecovered, Lock: 4, From: 0, To: 2, Epoch: 7,
		Req: proto.Request{Origin: 0}, Owned: modes.U,
	})
	h.drainSent()
	timers[1]()
	if sent := h.drainSent(); len(sent) != 0 {
		t.Fatalf("renomination fired after recovery: %+v", sent)
	}
	if len(timers) != 2 {
		t.Fatal("superseded nomination rescheduled")
	}
}

// TestFreshNominationAtSeedEpochStartsRound: after a completed round at
// epoch E every survivor sits exactly at E, so a nomination triggered
// by a subsequent crash carries epoch E — it must start a new round,
// while a nomination from strictly below E stays discarded as stale.
func TestFreshNominationAtSeedEpochStartsRound(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.locks = []proto.LockID{3}
	h.state[3] = State{}

	// Round one: node 2 dies; node 1 claims; the round completes.
	h.m.ConfirmDead(2)
	h.drainSent()
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 3, From: 1, To: 0, Epoch: 1,
		Owned: modes.None, Seq: EncodeClaimSeq(0, false),
	})
	s, ok := h.m.SeedFor(3)
	if !ok {
		t.Fatal("round one did not complete")
	}
	h.drainSent()

	// A fresh nomination at exactly the seed epoch starts round two.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 3, From: 1, To: 0, Epoch: s.Epoch,
		Owned: modes.None, Seq: EncodeClaimSeq(s.Epoch, false),
	})
	var probed bool
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindProbe && msg.Lock == 3 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("fresh nomination at the seed epoch was discarded as stale")
	}

	// Close round two, then verify a genuinely stale nomination (below
	// the new seed epoch) is still discarded.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 3, From: 1, To: 0, Epoch: s.Epoch + 1,
		Owned: modes.None, Seq: EncodeClaimSeq(s.Epoch, false),
	})
	s2, ok := h.m.SeedFor(3)
	if !ok || s2.Epoch <= s.Epoch {
		t.Fatalf("round two seed = %+v, %v", s2, ok)
	}
	h.drainSent()
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 3, From: 1, To: 0, Epoch: s2.Epoch - 1,
		Owned: modes.None, Seq: EncodeClaimSeq(0, false),
	})
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindProbe {
			t.Fatalf("stale nomination started a round: %+v", msg)
		}
	}
}

func TestProbeFencesAndClaims(t *testing.T) {
	h := newHarness(t, 1, []proto.NodeID{0, 1, 2})
	h.state[5] = State{Epoch: 0, Held: modes.R}

	h.m.HandleMessage(&proto.Message{Kind: proto.KindProbe, Lock: 5, From: 0, To: 1, Epoch: 1})
	if len(h.fenced) != 1 || h.fenced[0] != 5 {
		t.Fatalf("fenced = %v", h.fenced)
	}
	sent := h.drainSent()
	if len(sent) != 1 || sent[0].Kind != proto.KindClaim || sent[0].To != 0 || sent[0].Epoch != 1 {
		t.Fatalf("claim = %+v", sent)
	}
	if ep, tok := DecodeClaimSeq(sent[0].Seq); ep != 0 || tok || sent[0].Owned != modes.R {
		t.Fatalf("claimed state = %+v", sent[0])
	}
}

func TestCompetingRegeneratorYieldsToLowerID(t *testing.T) {
	h := newHarness(t, 1, []proto.NodeID{0, 1, 2, 3})
	h.locks = []proto.LockID{2}
	h.state[2] = State{}

	// Node 1 confirmed 0 dead first and started regenerating.
	h.m.ConfirmDead(0)
	h.drainSent()

	// But node 0 is alive and running its own round (it confirmed some
	// other death): its probe outranks ours.
	h.m.HandleMessage(&proto.Message{Kind: proto.KindProbe, Lock: 2, From: 0, To: 1, Epoch: 7})
	sent := h.drainSent()
	if len(sent) != 1 || sent[0].Kind != proto.KindClaim || sent[0].To != 0 {
		t.Fatalf("expected a yield-claim to node 0, got %+v", sent)
	}

	// The reverse: a probe from a higher ID while we run a round is
	// ignored. With node 0 still dead, node 1 is the regenerator, and
	// confirming another death starts a fresh round.
	h.m.ConfirmDead(3)
	h.drainSent()
	h.m.HandleMessage(&proto.Message{Kind: proto.KindProbe, Lock: 2, From: 2, To: 1, Epoch: 9})
	for _, m := range h.drainSent() {
		if m.Kind == proto.KindClaim && m.To == 2 {
			t.Fatalf("yielded to a higher-ID regenerator: %+v", m)
		}
	}
}

func TestRecoveredGuards(t *testing.T) {
	h := newHarness(t, 1, []proto.NodeID{0, 1})
	h.state[3] = State{Epoch: 6}

	// Older than the engine's world: ignored.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindRecovered, Lock: 3, From: 0, To: 1, Epoch: 5,
		Req: proto.Request{Origin: 0},
	})
	if len(h.reseeds) != 0 {
		t.Fatalf("stale recovered applied: %+v", h.reseeds)
	}

	// Current: applied once, duplicate ignored.
	apply := proto.Message{
		Kind: proto.KindRecovered, Lock: 3, From: 0, To: 1, Epoch: 6,
		Req: proto.Request{Origin: 0},
	}
	h.m.HandleMessage(&apply)
	h.m.HandleMessage(&apply)
	if len(h.reseeds) != 1 {
		t.Fatalf("reseeds = %+v, want exactly one", h.reseeds)
	}
}

func TestHint(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1})
	h.m.Hint(8, 1) // no completed round: silent
	if len(h.drainSent()) != 0 {
		t.Fatal("hint without a seed sent something")
	}
	h.locks = []proto.LockID{8}
	h.state[8] = State{}
	h.m.ConfirmDead(1)
	h.drainSent()
	h.m.Hint(8, 1)
	sent := h.drainSent()
	if len(sent) != 1 || sent[0].Kind != proto.KindRecovered || sent[0].To != 1 ||
		sent[0].Owned != modes.None || sent[0].Req.Origin != 0 {
		t.Fatalf("hint = %+v", sent)
	}
}

func TestRetryReprobesUnclaimed(t *testing.T) {
	var timers []func()
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.m.cfg.After = func(d time.Duration, fn func()) { timers = append(timers, fn) }
	h.m.cfg.ProbeTimeout = time.Second
	h.locks = []proto.LockID{1}
	h.state[1] = State{}

	h.m.ConfirmDead(2)
	h.drainSent()
	if len(timers) != 1 {
		t.Fatalf("timers = %d", len(timers))
	}
	timers[0]() // the probe to node 1 was lost; the retry resends it
	sent := h.drainSent()
	if len(sent) != 1 || sent[0].Kind != proto.KindProbe || sent[0].To != 1 {
		t.Fatalf("retry probes = %+v", sent)
	}
	if len(timers) != 2 {
		t.Fatal("retry did not reschedule")
	}
	// Round completes; the pending retry becomes a no-op.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 1, From: 1, To: 0, Epoch: 1,
		Owned: modes.None, Seq: EncodeClaimSeq(0, false),
	})
	h.drainSent()
	timers[1]()
	if len(h.drainSent()) != 0 {
		t.Fatal("retry fired after round completion")
	}
	if len(timers) != 2 {
		t.Fatal("completed round rescheduled its retry")
	}
}

func TestConfirmDeadRefreshesActiveRounds(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.locks = []proto.LockID{1}
	h.state[1] = State{}

	h.m.ConfirmDead(2)
	h.drainSent()
	// Node 1 dies too before claiming: the refreshed round must close on
	// its own (the subsequent sole-survivor round for the new death is
	// expected too).
	h.m.ConfirmDead(1)
	if len(h.reseeds) == 0 || h.reseeds[0].root != 0 {
		t.Fatalf("cascaded death did not close the round: %+v", h.reseeds)
	}
	if s, ok := h.m.SeedFor(1); !ok || s.Root != 0 {
		t.Fatalf("SeedFor = %+v, %v", s, ok)
	}
}

func TestDetectorTransitions(t *testing.T) {
	var confirms, alives []proto.NodeID
	t0 := time.Unix(0, 0)
	d := NewDetector(DetectorConfig{
		Peers:        []proto.NodeID{1, 2},
		ConfirmAfter: 3 * time.Second,
		OnConfirm:    func(p proto.NodeID) { confirms = append(confirms, p) },
		OnAlive:      func(p proto.NodeID) { alives = append(alives, p) },
	}, t0)

	// Node 2 keeps talking; node 1 goes silent. Short of ConfirmAfter
	// both are healthy, and no callback fires.
	d.Observe(2, t0.Add(1500*time.Millisecond))
	d.Tick(t0.Add(2 * time.Second))
	if len(confirms)+len(alives) != 0 || d.State(1) != PeerHealthy || d.State(2) != PeerHealthy {
		t.Fatalf("before the threshold: confirms %v, alives %v, state(1) %v", confirms, alives, d.State(1))
	}
	// Hearing from a healthy peer is not a comeback.
	d.Observe(2, t0.Add(2200*time.Millisecond))
	if len(alives) != 0 {
		t.Fatalf("OnAlive fired for a healthy peer: %v", alives)
	}
	d.Observe(2, t0.Add(3500*time.Millisecond))

	d.Tick(t0.Add(4 * time.Second))
	if len(confirms) != 1 || confirms[0] != 1 || d.State(1) != PeerConfirmed || d.State(2) != PeerHealthy {
		t.Fatalf("confirms = %v, state(1) = %v, state(2) = %v", confirms, d.State(1), d.State(2))
	}
	d.Tick(t0.Add(4500 * time.Millisecond))
	if len(confirms) != 1 {
		t.Fatal("confirm transition re-fired")
	}

	// The peer restarts: healthy again, OnAlive fires once.
	d.Observe(1, t0.Add(5*time.Second))
	if len(alives) != 1 || alives[0] != 1 || d.State(1) != PeerHealthy {
		t.Fatalf("alives = %v, state = %v", alives, d.State(1))
	}

	// An unwatched node never transitions.
	d.Observe(9, t0.Add(5*time.Second))
	d.Tick(t0.Add(20 * time.Second))
	if d.State(9) != PeerHealthy {
		t.Fatal("unwatched node tracked")
	}
}

// TestQuorumGatesCommit: with a majority quorum configured, a sole
// survivor of a 5-node cluster (a minority component) must not commit
// a regeneration round — and the stalled round's retry keeps probing
// the confirmed-dead nodes so a returning majority can unblock it.
func TestQuorumGatesCommit(t *testing.T) {
	var timers []func()
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2, 3, 4})
	h.m.cfg.Quorum = 3
	h.m.cfg.After = func(d time.Duration, fn func()) { timers = append(timers, fn) }
	h.locks = []proto.LockID{1}
	h.state[1] = State{}

	for _, p := range []proto.NodeID{1, 2, 3, 4} {
		h.m.ConfirmDead(p)
	}
	h.drainSent()
	if len(h.reseeds) != 0 {
		t.Fatalf("minority committed a round: %+v", h.reseeds)
	}
	if _, ok := h.m.SeedFor(1); ok {
		t.Fatal("minority minted a seed")
	}

	// The retry wave must probe the dead nodes (the only path to a
	// quorum), not just the empty expected set.
	var fired bool
	for _, fn := range timers {
		fn()
		fired = true
	}
	if !fired {
		t.Fatal("no retry scheduled for the stalled round")
	}
	var probed int
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindProbe && msg.Lock == 1 {
			probed++
		}
	}
	if probed == 0 {
		t.Fatal("stalled round did not probe the dead nodes")
	}

	// Two dead nodes answer the probes: their claims are fence acks,
	// complete the quorum, and commit the round.
	for _, p := range []proto.NodeID{1, 2} {
		h.m.HandleMessage(&proto.Message{
			Kind: proto.KindClaim, Lock: 1, From: p, To: 0, Epoch: 1,
			Owned: modes.None, Seq: EncodeClaimSeq(0, false),
		})
	}
	if len(h.reseeds) != 1 {
		t.Fatalf("quorum reached but round did not commit: %+v", h.reseeds)
	}
	if s, ok := h.m.SeedFor(1); !ok || s.Epoch == 0 {
		t.Fatalf("SeedFor = %+v, %v", s, ok)
	}
}

// TestQuorumSatisfiedByMajority: the normal case — one death in a
// 3-node cluster leaves a 2-node majority, which commits as before.
func TestQuorumSatisfiedByMajority(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.m.cfg.Quorum = 2
	h.locks = []proto.LockID{7}
	h.state[7] = State{}

	h.m.ConfirmDead(2)
	h.drainSent()
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 7, From: 1, To: 0, Epoch: 1,
		Owned: modes.None, Seq: EncodeClaimSeq(0, false),
	})
	if len(h.reseeds) != 1 {
		t.Fatalf("majority round did not commit: %+v", h.reseeds)
	}
}

// TestColdStartRegeneratorRunsRounds: the lowest-ID member of a
// journal-restored cluster reconciles its replayed locks with rounds
// even though nothing is confirmed dead, and the final epoch lands
// above every journaled epoch.
func TestColdStartRegeneratorRunsRounds(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.locks = []proto.LockID{5}
	h.state[5] = State{Epoch: 3} // replayed from the journal

	h.m.ColdStart([]proto.LockID{5})
	probes := h.drainSent()
	if len(probes) != 2 {
		t.Fatalf("cold-start probes = %+v", probes)
	}
	// Peers answer from their own replayed state; node 2's journal saw
	// a later epoch and the token.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 5, From: 1, To: 0, Epoch: probes[0].Epoch,
		Owned: modes.None, Seq: EncodeClaimSeq(2, false),
	})
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 5, From: 2, To: 0, Epoch: probes[0].Epoch,
		Owned: modes.None, Seq: EncodeClaimSeq(6, true),
	})
	if len(h.reseeds) != 1 {
		t.Fatalf("cold-start round did not commit: %+v", h.reseeds)
	}
	r := h.reseeds[0]
	if r.epoch <= 6 {
		t.Fatalf("final epoch %d not above the max journaled epoch 6", r.epoch)
	}
	if r.root != 2 {
		t.Fatalf("root = %d, want the highest-epoch token claimant 2", r.root)
	}
}

// TestColdNominationActedOnWithoutDeaths: a non-regenerator's cold
// nomination must start a round on the regenerator even though its
// dead set is empty; an ordinary (non-cold) claim in the same position
// still buffers.
func TestColdNominationActedOnWithoutDeaths(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.state[9] = State{Epoch: 2}

	// Ordinary nomination with no confirmed death: buffered.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 9, From: 1, To: 0, Epoch: 2,
		Owned: modes.None, Seq: EncodeClaimSeq(2, false),
	})
	if sent := h.drainSent(); len(sent) != 0 {
		t.Fatalf("ordinary claim acted on without deaths: %+v", sent)
	}

	// Cold nomination: starts a round immediately.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 9, From: 1, To: 0, Epoch: 2,
		Owned: modes.None, Seq: EncodeClaimSeq(2, false) | coldClaimBit,
	})
	var probed bool
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindProbe && msg.Lock == 9 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("cold nomination did not start a round")
	}
}

// TestStaleColdNominationGetsHint: a member that restarts long after
// the cluster recovered past its journaled epoch must receive the
// completed-round outcome in reply, terminating its nomination loop.
func TestStaleColdNominationGetsHint(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.locks = []proto.LockID{4}
	h.state[4] = State{}

	// A completed round leaves a seed at epoch >= 1.
	h.m.ConfirmDead(2)
	h.drainSent()
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 4, From: 1, To: 0, Epoch: 1,
		Owned: modes.None, Seq: EncodeClaimSeq(0, false),
	})
	s, ok := h.m.SeedFor(4)
	if !ok {
		t.Fatal("setup round did not complete")
	}
	h.drainSent()
	h.m.Alive(2)

	// Node 2 restarts from a journal frozen before the round.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 4, From: 2, To: 0, Epoch: s.Epoch - 1,
		Owned: modes.None, Seq: EncodeClaimSeq(s.Epoch-1, false) | coldClaimBit,
	})
	sent := h.drainSent()
	if len(sent) != 1 || sent[0].Kind != proto.KindRecovered || sent[0].To != 2 ||
		sent[0].Epoch != s.Epoch {
		t.Fatalf("stale cold nomination reply = %+v, want a hint", sent)
	}
}

// TestConfirmDeadRegeneratesSeedRootedLocks: a lock whose recovered
// root dies must regenerate eagerly from the seed table even when no
// survivor tracks an engine for it any more (ROADMAP item 2: eviction
// after recovery leaves the seed as the only reference).
func TestConfirmDeadRegeneratesSeedRootedLocks(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2, 3})
	h.locks = []proto.LockID{6}
	h.state[6] = State{Held: modes.None}

	// Round one: node 3 dies, node 1 claims the token, becoming root.
	h.m.ConfirmDead(3)
	h.drainSent()
	for _, p := range []proto.NodeID{1, 2} {
		tok := p == 1
		h.m.HandleMessage(&proto.Message{
			Kind: proto.KindClaim, Lock: 6, From: p, To: 0, Epoch: 1,
			Owned: modes.None, Seq: EncodeClaimSeq(0, tok),
		})
	}
	s, ok := h.m.SeedFor(6)
	if !ok || s.Root != 1 {
		t.Fatalf("round one seed = %+v, %v", s, ok)
	}
	h.drainSent()

	// All engines idle out and evict: the member no longer tracks lock 6.
	h.locks = nil

	// The recovered root dies. The seed table is the only reference left;
	// the regenerator must still start a round for lock 6.
	h.m.ConfirmDead(1)
	var probed bool
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindProbe && msg.Lock == 6 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("seed-rooted lock not regenerated eagerly on root death")
	}
}

// TestConfirmDeadUsesLocksReferencing: the host's probable-owner scan
// feeds extra locks into eager regeneration.
func TestConfirmDeadUsesLocksReferencing(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.m.cfg.LocksReferencing = func(dead proto.NodeID) []proto.LockID {
		if dead == 2 {
			return []proto.LockID{42}
		}
		return nil
	}
	h.state[42] = State{}

	h.m.ConfirmDead(2)
	var probed bool
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindProbe && msg.Lock == 42 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("LocksReferencing lock not regenerated")
	}
}
