package hlock_test

import (
	"testing"

	"hierlock/internal/hlock"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

func TestTokenLocalAcquireNoMessages(t *testing.T) {
	h := newHarness(t, 2, hlock.Options{})
	h.acquire(0, modes.W)
	if h.held(0) != modes.W {
		t.Fatalf("token node should acquire W locally, held=%v", h.held(0))
	}
	if len(h.pendingPairs()) != 0 {
		t.Fatal("local acquisition must send no messages")
	}
	h.release(0)
	h.checkQuiescent()
}

func TestTokenTransferOnStrongerRequest(t *testing.T) {
	h := newHarness(t, 2, hlock.Options{})
	h.acquire(1, modes.W)
	h.drain(nil)
	if h.held(1) != modes.W {
		t.Fatalf("node 1 should hold W, held=%v\n%s", h.held(1), h.dump())
	}
	if tok := h.requireToken(); tok != 1 {
		t.Fatalf("token should have transferred to node 1, is at %d", tok)
	}
	// Idle token transfers: exactly one request + one token message.
	if h.counts[proto.KindRequest] != 1 || h.counts[proto.KindToken] != 1 {
		t.Fatalf("message counts: %v", h.counts)
	}
	h.release(1)
	h.drain(nil)
	h.checkQuiescent()

	// The old root now routes through the new root.
	h.acquire(0, modes.R)
	h.drain(nil)
	if h.held(0) != modes.R {
		t.Fatalf("node 0 failed to reacquire via new root\n%s", h.dump())
	}
	h.release(0)
	h.drain(nil)
	h.checkQuiescent()
}

func TestCopyGrantForCompatibleWeaker(t *testing.T) {
	h := newHarness(t, 3, hlock.Options{})
	h.acquire(0, modes.R) // token holds R locally
	h.acquire(1, modes.R) // compatible, equal strength: copy grant
	h.acquire(2, modes.IR)
	h.drain(nil)
	for i, want := range []modes.Mode{modes.R, modes.R, modes.IR} {
		if h.held(i) != want {
			t.Fatalf("node %d holds %v, want %v\n%s", i, h.held(i), want, h.dump())
		}
	}
	if h.requireToken() != 0 {
		t.Fatal("token must not move for copy grants")
	}
	if h.counts[proto.KindToken] != 0 {
		t.Fatalf("no token transfer expected: %v", h.counts)
	}
	h.release(1)
	h.release(2)
	h.release(0)
	h.drain(nil)
	h.checkQuiescent()
}

func TestIncompatibleQueuesAtToken(t *testing.T) {
	h := newHarness(t, 3, hlock.Options{})
	h.acquire(0, modes.W)
	h.acquire(1, modes.R)
	h.acquire(2, modes.IR)
	h.drain(nil)
	if h.held(1) != modes.None || h.held(2) != modes.None {
		t.Fatalf("requests must wait while W is held\n%s", h.dump())
	}
	if h.node(0).QueueLen() != 2 {
		t.Fatalf("token queue length = %d, want 2", h.node(0).QueueLen())
	}
	h.release(0)
	h.drain(nil)
	if h.held(1) != modes.R || h.held(2) != modes.IR {
		t.Fatalf("queued requests not served after release\n%s", h.dump())
	}
	h.release(1)
	h.release(2)
	h.drain(nil)
	h.checkQuiescent()
}

// TestPaperFigure2 replays the paper's grant/release/queue example:
// A holds R (token); B holds IR under A; C holds IR under B. B releases IR
// (no message: still owns it via C). B then requests R and D requests R via
// B; B queues D's request locally and serves it after A grants B's.
func TestPaperFigure2(t *testing.T) {
	h := newHarness(t, 4, hlock.Options{})
	const a, b, c, d = 0, 1, 2, 3

	// Build Figure 2(a): reparent C and D under B by construction order.
	h.acquire(a, modes.R)
	h.acquire(b, modes.IR)
	h.drain(nil)
	// C initially points at node 0 (star); for the figure C must route via
	// B, so C acquires after B owns IR and was made C's parent. We emulate
	// the topology with a fresh engine: C's initial parent is B.
	hC := hlock.New(c, testLock, b, false, h.clocks[c], hlock.Options{})
	h.engines[c] = hC
	hD := hlock.New(d, testLock, b, false, h.clocks[d], hlock.Options{})
	h.engines[d] = hD

	h.acquire(c, modes.IR)
	h.drain(nil)
	if h.held(c) != modes.IR {
		t.Fatalf("C should hold IR granted by B\n%s", h.dump())
	}
	if _, ok := h.node(b).Children()[proto.NodeID(c)]; !ok {
		t.Fatalf("C must be in B's copyset\n%s", h.dump())
	}

	// Figure 2(b): B releases IR; no release message travels because B
	// still owns IR through C.
	before := h.counts[proto.KindRelease]
	h.release(b)
	h.drain(nil)
	if h.counts[proto.KindRelease] != before {
		t.Fatal("B's release must be message-free while C still owns IR (Rule 5.2)")
	}
	if got := h.node(b).Owned(); got != modes.IR {
		t.Fatalf("B owned = %v, want IR", got)
	}

	// Figure 2(c): B requests R; D requests R through B, which queues it.
	h.acquire(b, modes.R)
	// Do not deliver yet: D's request must reach B while {B,R} is in
	// transit, as in the figure.
	h.acquire(d, modes.R)
	// Deliver D→B first.
	h.deliverOne([2]proto.NodeID{d, b})
	if h.node(b).QueueLen() != 1 {
		t.Fatalf("B must queue D's R request (Rules 3.1, 4.1), queue=%d", h.node(b).QueueLen())
	}

	// Figure 2(d): A grants {B,R}; B, on receipt, grants the queued {D,R}.
	h.drain(nil)
	if h.held(b) != modes.R || h.held(d) != modes.R {
		t.Fatalf("B and D should both hold R\n%s", h.dump())
	}
	if h.requireToken() != a {
		t.Fatal("token must remain at A")
	}
	h.release(b)
	h.release(d)
	h.release(c)
	h.release(a)
	h.drain(nil)
	h.checkQuiescent()
}

// TestPaperFigure3 replays the freezing example: the token node A owns IW
// (held) with B owning IW through C; a read request {D,R} arrives, is
// queued, and IW becomes frozen so that later IW requests cannot starve D.
func TestPaperFigure3(t *testing.T) {
	h := newHarness(t, 6, hlock.Options{})
	const a, b, c, d, e, f = 0, 1, 2, 3, 4, 5

	h.acquire(a, modes.IW)
	h.acquire(b, modes.IW)
	h.drain(nil)
	// C under B, D under B (figure routes D's request through the tree).
	h.engines[c] = hlock.New(c, testLock, b, false, h.clocks[c], hlock.Options{})
	h.engines[d] = hlock.New(d, testLock, b, false, h.clocks[d], hlock.Options{})
	h.acquire(c, modes.IW) // granted by B (owns IW)
	h.drain(nil)
	if h.held(c) != modes.IW {
		t.Fatalf("C should hold IW from B\n%s", h.dump())
	}
	// B releases; it still owns IW via C — no release message.
	h.release(b)
	h.drain(nil)

	// Figure 3(a): D requests R. It forwards through B to A and queues.
	h.acquire(d, modes.R)
	h.drain(nil)
	if h.held(d) != modes.None {
		t.Fatalf("D's R must wait for IW releases\n%s", h.dump())
	}
	if q := h.node(a).QueueLen(); q != 1 {
		t.Fatalf("token queue = %d, want 1", q)
	}
	// Figure 3(b): IW is frozen at the token and at the potential granters
	// B and C.
	for _, n := range []int{a, b, c} {
		if !h.engines[proto.NodeID(n)].Frozen().Has(modes.IW) {
			t.Fatalf("node %d must have IW frozen\n%s", n, h.dump())
		}
	}
	// A new IW request (from E) must now queue rather than being granted,
	// even though IW is compatible with the token's owned mode.
	h.acquire(e, modes.IW)
	h.drain(nil)
	if h.held(e) != modes.None {
		t.Fatalf("E's IW must be frozen out (FIFO protection)\n%s", h.dump())
	}
	// And a request routed through a potential granter (C, owning IW via
	// nothing... B owns IW via C) must not be granted by B either.
	h.engines[f] = hlock.New(f, testLock, b, false, h.clocks[f], hlock.Options{})
	h.acquire(f, modes.IW)
	h.drain(nil)
	if h.held(f) != modes.None {
		t.Fatalf("F's IW must not be granted by frozen B\n%s", h.dump())
	}

	// Figure 3(c): C and A release IW; the token transfers to D.
	h.release(c)
	h.release(a)
	h.drain(nil)
	if h.held(d) != modes.R {
		t.Fatalf("D should now hold R\n%s", h.dump())
	}
	if h.requireToken() != d {
		t.Fatalf("token should be at D\n%s", h.dump())
	}
	// D releases; the queued IW requests are served in FIFO order.
	h.release(d)
	h.drain(nil)
	if h.held(e) != modes.IW || h.held(f) != modes.IW {
		t.Fatalf("E and F should hold IW after D releases\n%s", h.dump())
	}
	h.release(e)
	h.release(f)
	h.drain(nil)
	h.checkQuiescent()
}

func TestUpgradeImmediate(t *testing.T) {
	h := newHarness(t, 2, hlock.Options{})
	h.acquire(1, modes.U)
	h.drain(nil)
	if h.held(1) != modes.U || h.requireToken() != 1 {
		t.Fatalf("U must arrive by token transfer\n%s", h.dump())
	}
	h.upgrade(1)
	if h.held(1) != modes.W {
		t.Fatalf("upgrade with empty copyset must be immediate, held=%v", h.held(1))
	}
	h.release(1)
	h.drain(nil)
	h.checkQuiescent()
}

func TestUpgradeWaitsForReaders(t *testing.T) {
	h := newHarness(t, 3, hlock.Options{})
	h.acquire(1, modes.U)
	h.drain(nil)
	h.acquire(2, modes.R) // compatible with U: copy grant from token 1
	h.drain(nil)
	if h.held(2) != modes.R {
		t.Fatalf("R should coexist with U\n%s", h.dump())
	}
	h.upgrade(1)
	h.drain(nil)
	if h.held(1) != modes.U {
		t.Fatalf("upgrade must wait for reader, held=%v", h.held(1))
	}
	// Readers' modes are frozen during the upgrade (Tab. 2b row U col W:
	// freeze {IR, R}).
	if fz := h.node(1).Frozen(); !fz.Has(modes.IR) || !fz.Has(modes.R) {
		t.Fatalf("upgrade must freeze IR and R, frozen=%v", fz)
	}
	// A new reader must not sneak in.
	h.acquire(0, modes.R)
	h.drain(nil)
	if h.held(0) != modes.None {
		t.Fatal("new reader must be frozen out during upgrade")
	}
	h.release(2)
	h.drain(nil)
	if h.held(1) != modes.W {
		t.Fatalf("upgrade should complete after reader release, held=%v\n%s", h.held(1), h.dump())
	}
	// Upgraded event, not Acquired.
	evs := h.events[proto.NodeID(1)]
	if evs[len(evs)-1].Kind != hlock.EventUpgraded {
		t.Fatalf("want EventUpgraded, got %+v", evs[len(evs)-1])
	}
	h.release(1)
	h.drain(nil)
	if h.held(0) != modes.R {
		t.Fatal("queued reader must be served after writer releases")
	}
	h.release(0)
	h.drain(nil)
	h.checkQuiescent()
}

func TestLocalAcquireViaChildOwnership(t *testing.T) {
	h := newHarness(t, 3, hlock.Options{})
	h.acquire(0, modes.R)
	h.acquire(1, modes.R)
	h.drain(nil)
	h.release(0) // token holds nothing but still owns R via child 1
	h.drain(nil)
	if got := h.node(0).Owned(); got != modes.R {
		t.Fatalf("token owned = %v, want R via child", got)
	}
	msgs := h.counts[proto.KindRequest]
	h.acquire(0, modes.IR) // Rule 2: owned R covers IR — no messages
	if h.held(0) != modes.IR {
		t.Fatal("local acquire failed")
	}
	if h.counts[proto.KindRequest] != msgs {
		t.Fatal("local acquire must not send messages")
	}
	h.release(0)
	h.release(1)
	h.drain(nil)
	h.checkQuiescent()
}

func TestNonTokenLocalAcquire(t *testing.T) {
	h := newHarness(t, 3, hlock.Options{})
	h.acquire(1, modes.R)
	h.drain(nil) // transfer: node 1 is token
	h.engines[2] = hlock.New(2, testLock, 1, false, h.clocks[2], hlock.Options{})
	h.acquire(2, modes.R)
	h.drain(nil) // copy grant: node 2 child of 1 owning R
	h.release(2)
	h.drain(nil)
	// Node 2 released, so it owns nothing: a new IR needs a message.
	h.acquire(2, modes.IR)
	h.drain(nil)
	if h.held(2) != modes.IR {
		t.Fatal("reacquire failed")
	}
	h.release(1)
	h.release(2)
	h.drain(nil)
	h.checkQuiescent()
}

func TestReleasePropagatesOnlyOnWeakening(t *testing.T) {
	h := newHarness(t, 4, hlock.Options{})
	h.acquire(0, modes.R)
	h.acquire(1, modes.R)
	h.drain(nil)
	// Node 2 and 3 acquire IR through the tree; then release one of two
	// children of the same parent: the parent's owned mode is unchanged,
	// so no release propagates beyond it.
	h.engines[2] = hlock.New(2, testLock, 1, false, h.clocks[2], hlock.Options{})
	h.engines[3] = hlock.New(3, testLock, 1, false, h.clocks[3], hlock.Options{})
	h.acquire(2, modes.IR)
	h.acquire(3, modes.IR)
	h.drain(nil)
	before := h.counts[proto.KindRelease]
	h.release(2) // node 1 still owns R (held) — child release absorbed
	h.drain(nil)
	if got := h.counts[proto.KindRelease] - before; got != 1 {
		t.Fatalf("expected exactly the child's release message, got %d extra", got)
	}
	h.release(3)
	h.release(1)
	h.release(0)
	h.drain(nil)
	h.checkQuiescent()
}

func TestClientErrors(t *testing.T) {
	h := newHarness(t, 2, hlock.Options{})
	e := h.node(0)
	if _, err := e.Acquire(modes.None); err == nil {
		t.Error("Acquire(None) must fail")
	}
	if _, err := e.Acquire(modes.Mode(9)); err == nil {
		t.Error("Acquire(invalid) must fail")
	}
	if _, err := e.Release(); err == nil {
		t.Error("Release while not holding must fail")
	}
	if _, err := e.Upgrade(); err == nil {
		t.Error("Upgrade while not holding U must fail")
	}
	h.acquire(0, modes.R)
	if _, err := e.Acquire(modes.R); err == nil {
		t.Error("double Acquire must fail")
	}
	if _, err := e.Upgrade(); err == nil {
		t.Error("Upgrade from R must fail")
	}
	h.release(0)

	// Pending-op errors at a non-token node.
	n1 := h.node(1)
	h.acquire(1, modes.W) // request in flight, not yet delivered
	if _, err := n1.Acquire(modes.R); err == nil {
		t.Error("Acquire with pending request must fail")
	}
	h.drain(nil)
	h.release(1)
	h.drain(nil)
	h.checkQuiescent()
}

func TestProtocolErrors(t *testing.T) {
	h := newHarness(t, 2, hlock.Options{})
	e := h.node(0)
	if _, err := e.Handle(&proto.Message{Kind: proto.KindGrant, Lock: testLock, Mode: modes.R}); err == nil {
		t.Error("grant with no pending request must error")
	}
	if _, err := e.Handle(&proto.Message{Kind: proto.KindToken, Lock: testLock, Mode: modes.R}); err == nil {
		t.Error("token with no pending request must error")
	}
	// A release from a non-child is stale (it crossed a token transfer)
	// and must be ignored, not treated as an error.
	if out, err := e.Handle(&proto.Message{Kind: proto.KindRelease, Lock: testLock, From: 9}); err != nil || len(out.Msgs) != 0 {
		t.Errorf("release from non-child must be a no-op, got out=%v err=%v", out, err)
	}
	if _, err := e.Handle(&proto.Message{Kind: proto.KindRequest, Lock: testLock, Req: proto.Request{Origin: 0, Mode: modes.R}}); err == nil {
		t.Error("own request echoed back must error")
	}
	if _, err := e.Handle(&proto.Message{Kind: proto.KindInvalid, Lock: testLock}); err == nil {
		t.Error("invalid kind must error")
	}
	if _, err := e.Handle(&proto.Message{Kind: proto.KindRequest, Lock: 42}); err == nil {
		t.Error("wrong lock id must error")
	}
}

func TestStaleFreezeIgnored(t *testing.T) {
	h := newHarness(t, 2, hlock.Options{})
	// Token node must ignore freezes (it derives its own frozen set).
	out, err := h.node(0).Handle(&proto.Message{
		Kind: proto.KindFreeze, Lock: testLock, From: 1,
		Frozen: modes.MakeSet(modes.W),
	})
	if err != nil || len(out.Msgs) != 0 {
		t.Fatalf("stale freeze at token: out=%v err=%v", out, err)
	}
	if !h.node(0).Frozen().Empty() {
		t.Error("token adopted a stale frozen set")
	}
	// Non-token node must ignore freezes from non-parents.
	if _, err := h.node(1).Handle(&proto.Message{
		Kind: proto.KindFreeze, Lock: testLock, From: 7,
		Frozen: modes.MakeSet(modes.W),
	}); err != nil {
		t.Fatal(err)
	}
	if !h.node(1).Frozen().Empty() {
		t.Error("node adopted freeze from a stranger")
	}
}

func TestFreezePreventsStarvation(t *testing.T) {
	// A writer request amid a continuous stream of compatible IR traffic:
	// with freezing the writer is served; this is the protocol's fairness
	// guarantee (Rule 6).
	h := newHarness(t, 6, hlock.Options{})
	h.acquire(0, modes.IW)
	h.acquire(1, modes.IR)
	h.drain(nil)
	h.acquire(2, modes.R) // conflicts with IW: queued, freezes IW
	h.drain(nil)
	if h.held(2) != modes.None {
		t.Fatal("R must queue behind IW")
	}
	// Newly arriving IW requests (normally grantable: IW/IW compatible)
	// must now be frozen out.
	h.acquire(3, modes.IW)
	h.acquire(4, modes.IW)
	h.drain(nil)
	if h.held(3) != modes.None || h.held(4) != modes.None {
		t.Fatalf("IW must be frozen while R waits\n%s", h.dump())
	}
	h.release(0)
	h.drain(nil)
	if h.held(2) != modes.R {
		t.Fatalf("waiting R should be served first\n%s", h.dump())
	}
	h.release(2)
	h.drain(nil)
	if h.held(3) != modes.IW || h.held(4) != modes.IW {
		t.Fatalf("queued IW should be served after R\n%s", h.dump())
	}
	h.release(1)
	h.release(3)
	h.release(4)
	h.drain(nil)
	h.checkQuiescent()
}

func TestNoFreezingAblationAllowsOvertaking(t *testing.T) {
	h := newHarness(t, 4, hlock.Options{NoFreezing: true})
	h.acquire(0, modes.IW)
	h.acquire(2, modes.R)
	h.drain(nil)
	if h.held(2) != modes.None {
		t.Fatal("R must queue behind IW")
	}
	// Without freezing, a later IW request is granted immediately,
	// overtaking the queued R — the unfairness the paper's Rule 6 fixes.
	h.acquire(3, modes.IW)
	h.drain(nil)
	if h.held(3) != modes.IW {
		t.Fatalf("ablated protocol should grant IW immediately\n%s", h.dump())
	}
	h.release(0)
	h.release(3)
	h.drain(nil)
	h.release(2)
	h.drain(nil)
	h.checkQuiescent()
}

func TestQueueMergeOnTokenTransfer(t *testing.T) {
	h := newHarness(t, 5, hlock.Options{})
	h.acquire(0, modes.W)
	// Node 1 requests W (queued at token 0). Node 2 requests U.
	h.acquire(1, modes.W)
	h.acquire(2, modes.U)
	h.drain(nil)
	if h.node(0).QueueLen() != 2 {
		t.Fatalf("queue=%d, want 2\n%s", h.node(0).QueueLen(), h.dump())
	}
	// While node 1's W is pending, node 3 requests W routed via... the
	// star topology routes through 0 directly; queue there too.
	h.acquire(3, modes.W)
	h.drain(nil)
	h.release(0)
	h.drain(nil)
	// FIFO by Lamport time: node 1 first, then 2, then 3, each served
	// after the previous releases.
	if h.held(1) != modes.W {
		t.Fatalf("node 1 should hold W first\n%s", h.dump())
	}
	h.release(1)
	h.drain(nil)
	if h.held(2) != modes.U {
		t.Fatalf("node 2 should hold U second\n%s", h.dump())
	}
	h.release(2)
	h.drain(nil)
	if h.held(3) != modes.W {
		t.Fatalf("node 3 should hold W third\n%s", h.dump())
	}
	h.release(3)
	h.drain(nil)
	h.checkQuiescent()
}

func TestDeepChainRouting(t *testing.T) {
	// Chain topology: 0(token) ← 1 ← 2 ← 3 ← 4; a request from the tail
	// is forwarded up the whole chain.
	h := newHarness(t, 5, hlock.Options{})
	for i := 1; i < 5; i++ {
		h.engines[proto.NodeID(i)] = hlock.New(proto.NodeID(i), testLock, proto.NodeID(i-1), false, h.clocks[proto.NodeID(i)], hlock.Options{})
	}
	h.acquire(4, modes.W)
	h.drain(nil)
	if h.held(4) != modes.W || h.requireToken() != 4 {
		t.Fatalf("tail acquisition failed\n%s", h.dump())
	}
	if h.counts[proto.KindRequest] != 4 {
		t.Fatalf("expected 4 request hops, got %d", h.counts[proto.KindRequest])
	}
	h.release(4)
	h.drain(nil)
	// Path reversal repointed every intermediate router at node 4 while
	// the first request travelled, so node 3 now reaches the root in one
	// hop (Naimi-style path compression).
	before := h.counts[proto.KindRequest]
	h.acquire(3, modes.W)
	h.drain(nil)
	if got := h.counts[proto.KindRequest] - before; got != 1 {
		t.Fatalf("expected 1 request hop after path reversal, got %d", got)
	}
	h.release(3)
	h.drain(nil)
	h.checkQuiescent()
}

func TestDeepChainNoReversal(t *testing.T) {
	// With NoPathReversal, parent pointers change only on grant or token
	// receipt (the paper's literal pseudocode): node 3's request after
	// node 4's walks the stale chain 3→2→1→0→4, four hops.
	opt := hlock.Options{NoPathReversal: true}
	h := newHarness(t, 5, opt)
	for i := 1; i < 5; i++ {
		h.engines[proto.NodeID(i)] = hlock.New(proto.NodeID(i), testLock, proto.NodeID(i-1), false, h.clocks[proto.NodeID(i)], opt)
	}
	h.acquire(4, modes.W)
	h.drain(nil)
	h.release(4)
	h.drain(nil)
	before := h.counts[proto.KindRequest]
	h.acquire(3, modes.W)
	h.drain(nil)
	if got := h.counts[proto.KindRequest] - before; got != 4 {
		t.Fatalf("expected 4 request hops along the stale chain, got %d", got)
	}
	h.release(3)
	h.drain(nil)
	h.checkQuiescent()
}

func TestAblationNoChildGrants(t *testing.T) {
	h := newHarness(t, 3, hlock.Options{NoChildGrants: true})
	h.acquire(0, modes.R)
	h.acquire(1, modes.R)
	h.drain(nil)
	// Node 2 routes through node 1 (child owning R) — without child
	// grants the request must be forwarded to the token.
	h.engines[2] = hlock.New(2, testLock, 1, false, h.clocks[2], hlock.Options{NoChildGrants: true})
	h.acquire(2, modes.IR)
	h.drain(nil)
	if h.held(2) != modes.IR {
		t.Fatal("acquire failed")
	}
	// The grant must have come from the token (node 0).
	if got := h.node(2).Parent(); got != 0 {
		t.Fatalf("grant must come from token, parent=%d", got)
	}
	h.release(0)
	h.release(1)
	h.release(2)
	h.drain(nil)
	h.checkQuiescent()
}

func TestAblationNoLocalQueues(t *testing.T) {
	h := newHarness(t, 3, hlock.Options{NoLocalQueues: true})
	h.acquire(0, modes.W)
	h.acquire(1, modes.R)
	// Node 2's R request arrives at node 1 which has a pending R — with
	// local queues it would queue (Tab. 2a); ablated, it forwards.
	h.engines[2] = hlock.New(2, testLock, 1, false, h.clocks[2], hlock.Options{NoLocalQueues: true})
	h.acquire(2, modes.R)
	h.drain(nil)
	if h.node(1).QueueLen() != 0 {
		t.Fatal("ablated engine must not queue locally at non-token nodes")
	}
	h.release(0)
	h.drain(nil)
	if h.held(1) != modes.R || h.held(2) != modes.R {
		t.Fatalf("both readers should be served\n%s", h.dump())
	}
	h.release(1)
	h.release(2)
	h.drain(nil)
	h.checkQuiescent()
}

func TestAblationNoLocalAcquire(t *testing.T) {
	h := newHarness(t, 3, hlock.Options{NoLocalAcquire: true})
	h.acquire(0, modes.R) // token: Rule 3.2 local service is not ablated
	if h.held(0) != modes.R || len(h.pendingPairs()) != 0 {
		t.Fatal("token-side acquire must stay local even when Rule 2 is ablated")
	}
	h.acquire(1, modes.R)
	h.drain(nil)
	// Node 2 becomes a child of node 1.
	h.engines[2] = hlock.New(2, testLock, 1, false, h.clocks[2], hlock.Options{NoLocalAcquire: true})
	h.acquire(2, modes.R)
	h.drain(nil)
	h.release(1)
	h.drain(nil)
	// Node 1 holds nothing but owns R through node 2. With Rule 2 an IR
	// acquire would be message-free; ablated, it must send a request.
	before := h.counts[proto.KindRequest]
	h.acquire(1, modes.IR)
	if h.counts[proto.KindRequest] != before+1 {
		t.Fatal("ablated engine must request rather than acquire locally")
	}
	h.drain(nil)
	if h.held(1) != modes.IR {
		t.Fatal("acquire failed")
	}
	h.release(0)
	h.release(1)
	h.release(2)
	h.drain(nil)
	h.checkQuiescent()
}

func TestCloneAndFingerprint(t *testing.T) {
	h := newHarness(t, 4, hlock.Options{})
	h.acquire(0, modes.IW)
	h.acquire(1, modes.IR)
	h.acquire(2, modes.R) // queued, freezes IW
	h.drain(nil)

	for i := 0; i < 4; i++ {
		e := h.node(i)
		var ck proto.Clock
		c := e.Clone(&ck)
		if c.Fingerprint() != e.Fingerprint() {
			t.Fatalf("node %d: clone fingerprint differs:\n%s\n%s", i, e.Fingerprint(), c.Fingerprint())
		}
		// Mutating the clone must not affect the original.
		if c.Held() != modes.None {
			if _, err := c.Release(); err != nil {
				t.Fatal(err)
			}
			if c.Fingerprint() == e.Fingerprint() {
				t.Fatalf("node %d: clone still aliases original", i)
			}
		}
	}
	h.release(0)
	h.release(1)
	h.drain(nil)
	h.release(2)
	h.drain(nil)
	h.checkQuiescent()
}

func TestEngineAccessors(t *testing.T) {
	var clock proto.Clock
	e := hlock.New(3, 7, 0, false, &clock, hlock.Options{})
	if e.Self() != 3 || e.Lock() != 7 || e.IsToken() || e.Parent() != 0 {
		t.Fatalf("accessors: %v", e)
	}
	if e.String() == "" {
		t.Fatal("String must render")
	}
	if e.QueueLen() != 0 || !e.Frozen().Empty() || e.Owned() != modes.None {
		t.Fatalf("fresh engine state: %v", e)
	}
}

// TestImmediateGrantEventStorage: an Acquire or Upgrade granted on the
// spot returns its one event in the engine's own storage, valid until the
// next call on that engine. Two engines (and an engine and its clone)
// never share that storage, appending to such an Out copies instead of
// writing into the engine, and every path that is not an immediate grant
// — a token arriving, a copy grant arriving, an upgrade completing on a
// reader's release — still returns a slice of its own, untouched by what
// the engine grants later.
func TestImmediateGrantEventStorage(t *testing.T) {
	clock := &proto.Clock{}
	trA, trB := proto.TraceID{Node: 0, Seq: 11}, proto.TraceID{Node: 0, Seq: 22}
	a := hlock.New(0, 1, 0, true, clock, hlock.Options{})
	b := hlock.New(0, 2, 0, true, clock, hlock.Options{})
	outA, err := a.AcquireTraced(modes.U, 0, trA)
	if err != nil || len(outA.Events) != 1 {
		t.Fatalf("acquire on a: %+v, %v", outA, err)
	}
	outB, err := b.AcquireTraced(modes.R, 0, trB)
	if err != nil || len(outB.Events) != 1 {
		t.Fatalf("acquire on b: %+v, %v", outB, err)
	}
	wantA := hlock.Event{Kind: hlock.EventAcquired, Mode: modes.U, Local: true, Trace: trA}
	if outA.Events[0] != wantA {
		t.Fatalf("b's grant changed a's event: %+v", outA.Events[0])
	}
	if &outA.Events[0] == &outB.Events[0] {
		t.Fatal("two engines returned the same event storage")
	}

	// A clone grants out of its own slot.
	c := a.Clone(clock)
	if _, err := c.Upgrade(); err != nil {
		t.Fatal(err)
	}
	if outA.Events[0] != wantA {
		t.Fatalf("the clone's upgrade changed the original's event: %+v", outA.Events[0])
	}

	// Appending copies: the grown slice is the caller's.
	grown := append(outA.Events, hlock.Event{Kind: hlock.EventUpgraded})
	grown[0].Mode = modes.IR
	if outA.Events[0] != wantA {
		t.Fatalf("append wrote into the engine's storage: %+v", outA.Events[0])
	}

	// The contract's other half: the next immediate grant on the same
	// engine reuses the slot.
	outUp, err := a.UpgradeTraced(0, trB)
	if err != nil || len(outUp.Events) != 1 || outUp.Events[0].Kind != hlock.EventUpgraded {
		t.Fatalf("upgrade on a: %+v, %v", outUp, err)
	}
	if &outUp.Events[0] != &outA.Events[0] {
		t.Fatal("an engine's second immediate grant did not reuse its slot")
	}

	// Grants that arrive by message append to a slice of their own.
	engines := map[proto.NodeID]*hlock.Engine{}
	for i := proto.NodeID(0); i < 3; i++ {
		engines[i] = hlock.New(i, testLock, 0, i == 0, &proto.Clock{}, hlock.Options{})
	}
	deliver := func(out hlock.Out) hlock.Out {
		t.Helper()
		for len(out.Msgs) > 0 && len(out.Events) == 0 {
			out = step(t, engines, out)
		}
		return out
	}
	// Token transfer: node 1 asks for U, the token comes to it.
	out, err := engines[1].Acquire(modes.U)
	if err != nil {
		t.Fatal(err)
	}
	byToken := deliver(out)
	// Copy grant: node 2 asks the new token node for R.
	if out, err = engines[2].Acquire(modes.R); err != nil {
		t.Fatal(err)
	}
	byCopy := deliver(out)
	// Upgrade queued behind the reader, completed by its release.
	if out, err = engines[1].Upgrade(); err != nil || len(out.Events) != 0 {
		t.Fatalf("upgrade beside a reader: %+v, %v", out, err)
	}
	step(t, engines, out) // the freeze reaches the reader
	if out, err = engines[2].Release(); err != nil {
		t.Fatal(err)
	}
	byRelease := deliver(out)
	arrived := []hlock.Event{
		{Kind: hlock.EventAcquired, Mode: modes.U},
		{Kind: hlock.EventAcquired, Mode: modes.R},
		{Kind: hlock.EventUpgraded, Mode: modes.W},
	}
	check := func(when string) {
		t.Helper()
		for i, o := range []hlock.Out{byToken, byCopy, byRelease} {
			if len(o.Events) != 1 || o.Events[0].Kind != arrived[i].Kind || o.Events[0].Mode != arrived[i].Mode {
				t.Fatalf("%s: arrived grant %d reads %+v, want %+v", when, i, o.Events, arrived[i])
			}
		}
	}
	check("on arrival")
	// Now let the token engine grant on the spot, which writes its slot.
	if _, err := engines[1].Release(); err != nil {
		t.Fatal(err)
	}
	if o, err := engines[1].Acquire(modes.IW); err != nil || len(o.Events) != 1 {
		t.Fatalf("immediate IW at the token node: %+v, %v", o, err)
	}
	check("after a later immediate grant on the same engine")
}
