package recovery

import (
	"testing"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Regression test: a graceful departure used to trigger two
// regeneration rounds. Every survivor processed the leaver's LEAVE
// broadcast; the regenerator ran the round, and any non-regenerator
// whose copy of the LEAVE arrived after the round's Recovered
// nominated the lock at exactly the seed epoch — indistinguishable,
// pre-fix, from a fresh crash nomination, so the regenerator ran a
// second round whose reseed raced grants issued under the first
// (observed live as a waiter fenced forever against a superseded
// epoch). Departure-marked nominations carry the leaver's ID so the
// regenerator can drop the redundant ones.
func TestRedundantDepartureNominationDropped(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})
	h.locks = []proto.LockID{3}
	h.state[3] = State{}

	// Node 2 leaves gracefully, nominating lock 3; node 1's claim
	// completes the round at epoch 1.
	h.m.Depart(2, []proto.LockID{3})
	h.drainSent()
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 3, From: 1, To: 0, Epoch: 1,
		Owned: modes.None, Seq: EncodeClaimSeq(0, false),
	})
	s, ok := h.m.SeedFor(3)
	if !ok || s.Epoch != 1 {
		t.Fatalf("depart round did not complete: seed = %+v, %v", s, ok)
	}
	h.drainSent()
	reseeds := len(h.reseeds)

	// Node 1's own copy of the LEAVE arrives after it saw Recovered, so
	// its nomination carries the post-round epoch — equal to the seed
	// epoch, the signature that pre-fix forced a second round.
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 3, From: 1, To: 0, Epoch: s.Epoch,
		Owned: modes.None,
		Seq:   encodeDepartClaim(EncodeClaimSeq(s.Epoch, false)|coldClaimBit, 2),
	})

	var hinted bool
	for _, msg := range h.drainSent() {
		switch msg.Kind {
		case proto.KindProbe:
			t.Fatalf("redundant departure nomination started a second round: %+v", msg)
		case proto.KindRecovered:
			hinted = true
		}
	}
	if !hinted {
		t.Fatal("redundant departure nomination was not answered with the round outcome")
	}
	if s2, _ := h.m.SeedFor(3); s2.Epoch != 1 {
		t.Fatalf("seed epoch churned to %d, want 1", s2.Epoch)
	}
	if len(h.reseeds) != reseeds {
		t.Fatalf("local engine reseeded again: %+v", h.reseeds[reseeds:])
	}
}

// The redundancy guard must not swallow the case it exists to cover:
// a departure nomination for a LEAVE the regenerator never received
// (the leaver is still in its configured node set) starts a round.
func TestDepartureNominationForUnseenLeaveStartsRound(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2})

	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 9, From: 1, To: 0, Epoch: 0,
		Owned: modes.None,
		Seq:   encodeDepartClaim(EncodeClaimSeq(0, false)|coldClaimBit, 2),
	})

	var probed bool
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindProbe && msg.Lock == 9 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("departure nomination for an unseen LEAVE did not start a round")
	}
}

// A non-regenerator survivor processing a LEAVE sends exactly one
// departure-marked cold nomination per lock, addressed to the
// regenerator and carrying the leaver's identity.
func TestDepartNonRegeneratorSendsDepartureMarkedClaim(t *testing.T) {
	h := newHarness(t, 1, []proto.NodeID{0, 1, 2})
	h.state[5] = State{Epoch: 1}

	h.m.Depart(2, []proto.LockID{5})

	sent := h.drainSent()
	if len(sent) != 1 {
		t.Fatalf("sent %d messages, want exactly one nomination: %+v", len(sent), sent)
	}
	msg := sent[0]
	if msg.Kind != proto.KindClaim || msg.To != 0 || msg.Lock != 5 || msg.Epoch != 1 {
		t.Fatalf("nomination = %+v", msg)
	}
	if !IsColdClaim(msg.Seq) {
		t.Fatal("departure nomination is not cold-marked")
	}
	if leaver, ok := departClaimLeaver(msg.Seq); !ok || leaver != 2 {
		t.Fatalf("departClaimLeaver = %d, %v, want 2, true", leaver, ok)
	}
	if epoch, token := DecodeClaimSeq(msg.Seq); epoch != 1 || token {
		t.Fatalf("claim payload = epoch %d token %v, want epoch 1 token false", epoch, token)
	}
}

// TestDepartLoweringMajorityCommitsRound: a departure shrinks the node
// set, and with it the majority a round needs. Four members need three
// participants; node 3 is dead and node 1 has claimed, so the round
// waits on node 2. When node 2 leaves instead, the three that remain
// need two, which the regenerator and node 1 already are: the round
// commits at once, not at some later retry or when node 3 comes back.
func TestDepartLoweringMajorityCommitsRound(t *testing.T) {
	h := newHarness(t, 0, []proto.NodeID{0, 1, 2, 3})
	h.locks = []proto.LockID{4}
	h.state[4] = State{}

	h.m.ConfirmDead(3)
	h.m.HandleMessage(&proto.Message{
		Kind: proto.KindClaim, Lock: 4, From: 1, To: 0, Epoch: 1,
		Owned: modes.None, Seq: EncodeClaimSeq(0, false),
	})
	if len(h.reseeds) != 0 {
		t.Fatal("2 of 4 committed a round")
	}
	h.drainSent()

	h.m.Depart(2, nil)

	if len(h.reseeds) != 1 || h.reseeds[0].lock != 4 {
		t.Fatalf("reseeds = %+v, want the open round committed by the departure", h.reseeds)
	}
	s, ok := h.m.SeedFor(4)
	if !ok || s.Epoch != 1 || s.Root != 0 {
		t.Fatalf("SeedFor = %+v, %v", s, ok)
	}
	var recovered []proto.NodeID
	for _, msg := range h.drainSent() {
		if msg.Kind == proto.KindRecovered {
			recovered = append(recovered, msg.To)
		}
	}
	if len(recovered) != 1 || recovered[0] != 1 {
		t.Fatalf("Recovered sent to %v, want node 1 alone", recovered)
	}
}
